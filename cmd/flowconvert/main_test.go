package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"plotters"
)

func TestConvertRoundTrip(t *testing.T) {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	records := []plotters.Record{{
		Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: plotters.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 20,
		State: plotters.StateEstablished, Payload: []byte("x"),
	}}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "in.flows")
	f, err := os.Create(binPath)
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
	f.Close()

	// binary -> jsonl via the streaming converter's core path.
	in, err := os.Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	outPath := filepath.Join(dir, "out.jsonl")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := plotters.NewTraceReader(in, "binary")
	if err != nil {
		t.Fatal(err)
	}
	w, err := plotters.NewTraceWriter(out, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	n, err := plotters.CopyTrace(w, r)
	if err != nil || n != 1 {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	out.Close()

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
