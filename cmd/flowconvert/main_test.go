package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plotters"
)

// writeBinary writes one record as a binary trace at path and returns
// the file's bytes.
func writeBinary(t *testing.T, path string) []byte {
	t.Helper()
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := []plotters.Record{{
		Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: plotters.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 20,
		State: plotters.StateEstablished, Payload: []byte("x"),
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := plotters.NewTraceWriter(f, "binary")
	if err != nil {
		t.Fatal(err)
	}
	if err := plotters.WriteAllTrace(bw, records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "in.flows")
	writeBinary(t, binPath)
	outPath := filepath.Join(dir, "out.jsonl")
	var stderr strings.Builder
	if err := run([]string{"-from", "binary", "-to", "jsonl", binPath, outPath}, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := "converted 1 records (binary -> jsonl)\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}

	back, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	jr, err := plotters.NewTraceReader(back, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	got, err := plotters.ReadAllTrace(jr)
	if err != nil || len(got) != 1 || got[0].Src != 1 {
		t.Errorf("round trip: %v, %v", got, err)
	}
}

// TestRejectedBeforeOutput: a bad format, or an OUT that is IN, is
// refused before OUT is created, so neither file loses a byte.
func TestRejectedBeforeOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		out  string // "" = OUT is IN; "link" = OUT is a hard link to IN
		want string
	}{
		{[]string{"-from", "binary", "-to", "bogus"}, "out.csv", `flowio: unknown trace format "bogus"`},
		{[]string{"-from", "bogus", "-to", "csv"}, "out.csv", `flowio: unknown trace format "bogus"`},
		{[]string{"-to", "binary"}, "", "OUT "},
		{[]string{"-to", "binary"}, "link", "OUT "},
	} {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.flows")
		inBytes := writeBinary(t, in)
		out, outBytes := filepath.Join(dir, tc.out), []byte("an existing file\n")
		switch tc.out {
		case "":
			out, outBytes = in, inBytes
		case "link":
			if err := os.Link(in, out); err != nil {
				t.Skip(err)
			}
			outBytes = inBytes
		default:
			if err := os.WriteFile(out, outBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var stderr strings.Builder
		err := run(append(tc.args, in, out), &stderr)
		gotIn, _ := os.ReadFile(in)
		gotOut, _ := os.ReadFile(out)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || stderr.Len() != 0 ||
			!bytes.Equal(gotIn, inBytes) || !bytes.Equal(gotOut, outBytes) {
			t.Errorf("flowconvert %v IN %s: got %v after %q (IN %d bytes, OUT %d bytes), want %q with both files intact",
				tc.args, tc.out, err, stderr.String(), len(gotIn), len(gotOut), tc.want)
		}
	}
}
