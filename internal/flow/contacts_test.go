package flow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// referenceContacts derives per-host contact sets straight from the
// records — the definition every ContactSource implementation must
// reproduce.
func referenceContacts(records []Record, hosts func(IP) bool) map[IP][]IP {
	sets := make(map[IP]map[IP]bool)
	for i := range records {
		r := &records[i]
		if hosts != nil && !hosts(r.Src) {
			continue
		}
		s, ok := sets[r.Src]
		if !ok {
			s = make(map[IP]bool)
			sets[r.Src] = s
		}
		s[r.Dst] = true
	}
	out := make(map[IP][]IP, len(sets))
	for ip, s := range sets {
		dsts := make([]IP, 0, len(s))
		for dst := range s {
			dsts = append(dsts, dst)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		out[ip] = dsts
	}
	return out
}

// The batch FeatureSet must carry the exact contact sets of its records,
// each host's destinations ascending.
func TestExtractFeatureSetContacts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	records := strictlyOrderedRecords(rng, 500)
	fs := ExtractFeatureSet(records, FeatureOptions{}, Window{})
	want := referenceContacts(records, nil)
	if got := fs.Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("batch contacts differ:\ngot  %v\nwant %v", got, want)
	}
	// Contacts must agree with the Peers feature count host by host.
	for ip, f := range fs.Features() {
		if len(fs.Contacts()[ip]) != f.Peers {
			t.Errorf("host %v: %d contacts but Peers = %d", ip, len(fs.Contacts()[ip]), f.Peers)
		}
	}
}

// A FeatureSet that never had contacts attached reports nil, so
// consumers can tell "no contacts tracked" from "no contacts seen".
func TestFeatureSetContactsNilWhenUnattached(t *testing.T) {
	fs := NewFeatureSet(nil, Window{})
	if fs.Contacts() != nil {
		t.Errorf("unattached Contacts() = %v, want nil", fs.Contacts())
	}
}

// Streaming, sealed-pane, and sharded contact views must all equal the
// batch reference over the same records.
func TestContactSourcesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	records := strictlyOrderedRecords(rng, 800)
	want := referenceContacts(records, nil)

	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	for i := range records {
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := se.Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("stream contacts differ from batch")
	}

	pane := se.TakePane(se.Window())
	if got := pane.Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("pane contacts differ from batch")
	}
	if got := pane.FeatureSet().Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("pane FeatureSet contacts differ from batch")
	}

	sh := NewShardedExtractorSkew(FeatureOptions{}, 8, 0)
	for i := range records {
		if err := sh.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("sharded contacts differ from batch")
	}
}

// MergePanes must union contact sets across panes with de-duplication:
// a destination re-contacted in a later pane appears once, and the
// merged sets equal the batch reference over the combined records. Both
// the multi-pane merge and the single-populated-pane fast path are
// exercised.
func TestMergePanesContacts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	records := strictlyOrderedRecords(rng, 600)
	want := referenceContacts(records, nil)

	se := NewStreamExtractorSkew(FeatureOptions{}, 0)
	var panes []*Pane
	start := records[0].Start
	cut := start.Add(time.Hour)
	for i := range records {
		for !records[i].Start.Before(cut) {
			se.ReleaseBefore(cut)
			panes = append(panes, se.TakePane(Window{From: cut.Add(-time.Hour), To: cut}))
			cut = cut.Add(time.Hour)
		}
		if err := se.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	end := records[len(records)-1].Start.Add(time.Nanosecond)
	se.ReleaseBefore(end)
	panes = append(panes, se.TakePane(Window{From: cut.Add(-time.Hour), To: cut}))
	if len(panes) < 2 {
		t.Fatalf("expected multiple panes, got %d", len(panes))
	}

	if got := MergePanes(0, panes...).Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged contacts differ from batch")
	}

	// Single populated pane + empty pane: fast path must attach too.
	se2 := NewStreamExtractorSkew(FeatureOptions{}, 0)
	for i := range records {
		if err := se2.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	w := se2.Window()
	single := se2.TakePane(w)
	empty := &Pane{builders: map[IP]*featureBuilder{}, window: Window{From: w.To, To: w.To.Add(time.Hour)}}
	if got := MergePanes(0, single, empty).Contacts(); !reflect.DeepEqual(got, want) {
		t.Errorf("single-pane merge contacts differ from batch")
	}
}
