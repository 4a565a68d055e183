package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// Markdown is the table experiments -campaign prints: a heading for the
// run, then per world a heading, the column header and one row for the
// baseline and for every countermeasure × intensity.
func TestReportMarkdown(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny_report.json")
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	md := r.Markdown()
	lines := strings.Split(md, "\n")
	for i, want := range []string{
		"## Campaign frontier (seed 42, 1 day(s), scale tiny)",
		"",
		"Detection cells are storm/nugache TPR; cost is what the botnet pays for the grid point.",
		"",
		"### World baseline (34651 records, 60 campus hosts, τ_vol≈888)",
		"",
		"| countermeasure | intensity | extra bytes | extra peers | added latency | findplotters | community | union | intersection | vote-2 |",
		"|---|---|---|---|---|---|---|---|---|---|",
		"| (none) | 0.00 | 0 | 0 | 0 | 1.00/0.00 | 1.00/0.94 | 1.00/0.94 | 1.00/0.00 | 1.00/0.00 |",
	} {
		if i >= len(lines) || lines[i] != want {
			t.Fatalf("line %d of\n%s\nwant %q", i, md, want)
		}
	}

	rows := map[string]int{}
	for _, l := range lines {
		if strings.HasPrefix(l, "| ") && !strings.HasPrefix(l, "| countermeasure ") {
			cells := strings.Split(l, " | ")
			rows[cells[0]+" | "+cells[1]]++
		}
	}
	want := map[string]int{}
	for _, w := range r.Worlds {
		want["| (none) | 0.00"]++
		cms := map[string]bool{}
		for _, p := range w.Frontier {
			cms[p.Countermeasure] = true
		}
		for cm := range cms {
			for _, x := range r.Intensities {
				want[fmt.Sprintf("| %s | %.2f", cm, x)]++
			}
		}
	}
	if len(want) != 1+4*2 || fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Errorf("rows by countermeasure and intensity: %v, want %v", rows, want)
	}
}

func TestFormatCosts(t *testing.T) {
	for n, want := range map[int64]string{
		0:           "0",
		1023:        "1023",
		1 << 10:     "1.0KiB",
		1<<20 - 1:   "1024.0KiB",
		1 << 20:     "1.0MiB",
		3 << 29:     "1.5GiB",
		1<<30 - 1:   "1024.0MiB",
		1 << 30:     "1.0GiB",
		1536 << 10:  "1.5MiB",
		1<<10 + 102: "1.1KiB",
	} {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
	for d, want := range map[time.Duration]string{
		0:                         "0",
		time.Nanosecond:           "0s",
		499 * time.Millisecond:    "0s",
		500 * time.Millisecond:    "1s",
		90 * time.Second:          "1m30s",
		2*time.Hour + time.Second: "2h0m1s",
	} {
		if got := formatLatency(d); got != want {
			t.Errorf("formatLatency(%v) = %q, want %q", d, got, want)
		}
	}
}
