package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/flowio"
)

func TestWriteTrace(t *testing.T) {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := []flow.Record{{
		Src: 1, Dst: 2, Proto: flow.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
		State: flow.StateEstablished,
	}}
	// Every row of the trace-format table, under the row's extension.
	for _, name := range strings.Split(flowio.Names(), ", ") {
		tf, err := flowio.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out"+tf.Ext)
		if err := writeTrace(path, records, tf); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flowio.ReadAll(tf.NewReader(f))
		f.Close()
		if err != nil || len(got) != 1 || got[0].Src != 1 {
			t.Errorf("%s round trip: %v, %v", name, got, err)
		}
		// Unwritable path errors.
		if err := writeTrace(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), records, tf); err == nil {
			t.Errorf("%s: bad path accepted", name)
		}
	}
	if _, err := flowio.Lookup("bogus"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRejectedBeforeOutput: a bad shape is refused before the output
// directory is created or any progress is printed.
func TestRejectedBeforeOutput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-days 0", "-days must be positive"},
		{"-campus 0", "scenario: campus hosts must be positive"},
		{"-emule -1", "scenario: trader counts must be non-negative"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		var stderr strings.Builder
		err := run(append(strings.Fields(tc.args), "-out", dir), &stderr)
		_, statErr := os.Stat(dir)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || stderr.Len() != 0 || !os.IsNotExist(statErr) {
			t.Errorf("synthgen %s: got %v after %q (stat %s: %v), want %q before any output", tc.args, err, stderr.String(), dir, statErr, tc.want)
		}
	}
}
