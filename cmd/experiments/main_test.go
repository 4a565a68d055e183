package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with the current output")

const goldenPath = "testdata/golden.txt"

func TestParseFigs(t *testing.T) {
	all, err := parseFigs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 || slices.Contains(all, 4) {
		t.Errorf("all = %v (figure 4 is the algorithm, not data)", all)
	}
	some, err := parseFigs("12, 9,1,9")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(some, []int{1, 9, 12}) {
		t.Errorf("some = %v", some)
	}
	if _, err := parseFigs("1,x"); err == nil {
		t.Error("bad list accepted")
	}
}

// TestExperimentsGolden pins the stdout of the detection figures, the
// baseline comparison, the detector ensemble and the sampling sweep on
// the small two-day corpus. After an intentional behavior change,
// regenerate with:
//
//	go test ./cmd/experiments -run TestExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and evaluates a two-day corpus; skipped in -short mode")
	}
	var out bytes.Buffer
	args := []string{"-days", "2", "-scale", "small", "-fig", "6,7,8,9,10,11,12", "-baselines",
		"-detectors", "findplotters,community", "-sampling"}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("output diverges from %s at line %d:\ngot  %q", goldenPath, i+1, got[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("output is %d lines, %s has %d", len(got), goldenPath, len(wantLines))
	}
}

// Bad figure and detector lists are refused before any corpus is built.
func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"figure 4", []string{"-fig", "4"}, "no such figure: 4"},
		{"no detectors", []string{"-detectors", ""}, "lists no detectors"},
		{"unknown detector", []string{"-detectors", "findplotters,oracle"}, `unknown detector "oracle"`},
		{"duplicated detector", []string{"-detectors", "community,community"}, `lists "community" twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(tc.args, io.Discard, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if strings.Contains(stderr.String(), "synthesizing") {
				t.Errorf("a corpus was synthesized before the error: %s", stderr.String())
			}
		})
	}
}
