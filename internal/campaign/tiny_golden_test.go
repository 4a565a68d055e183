package campaign

import (
	"bytes"
	"os"
	"testing"
)

const tinyGoldenPath = "testdata/tiny_report.json"

// TestTinyReportGolden pins the smoke sweep's whole report — baseline
// row, day-0 suspects, τ_vol and every frontier score — byte for byte.
// After an intentional behavior change, regenerate with:
//
//	go test ./internal/campaign -run TestTinyReportGolden -update
func TestTinyReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep synthesizes a corpus; skipped in -short mode")
	}
	got, err := tinyReport(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(tinyGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", tinyGoldenPath)
		return
	}
	want, err := os.ReadFile(tinyGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("report diverges from %s at line %d:\ngot  %s", tinyGoldenPath, i+1, gotLines[i])
		}
	}
	t.Fatalf("report is a prefix of %s (%d of %d lines)", tinyGoldenPath, len(gotLines), len(wantLines))
}
