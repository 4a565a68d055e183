package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/flow"
)

// windowRef is one detection window's checkable outcome: which slot it
// filled (relative to the pass), how much it saw, and a digest of every
// detector's suspect set.
type windowRef struct {
	Index    int               `json:"index"`
	Hosts    int               `json:"hosts"`
	Records  int               `json:"records"`
	Suspects map[string]string `json:"suspects"`
}

func (w windowRef) equal(o windowRef) bool {
	if w.Index != o.Index || w.Hosts != o.Hosts || w.Records != o.Records || len(w.Suspects) != len(o.Suspects) {
		return false
	}
	for k, v := range w.Suspects {
		if o.Suspects[k] != v {
			return false
		}
	}
	return true
}

// digest names a suspect set: SHA-256 over the sorted addresses, first
// eight bytes, prefixed with the set size so a diff reads at a glance.
func digest(s core.HostSet) string {
	h := sha256.New()
	var b [4]byte
	for _, ip := range s.Sorted() {
		binary.BigEndian.PutUint32(b[:], uint32(ip))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%s", len(s), hex.EncodeToString(h.Sum(nil)[:8]))
}

func refOf(index, hosts, records int, detections []*core.Detection) windowRef {
	ref := windowRef{Index: index, Hosts: hosts, Records: records, Suspects: map[string]string{}}
	for _, d := range detections {
		ref.Suspects[d.Detector] = digest(d.Suspects)
	}
	return ref
}

// newDetectors builds the detector list a workload configures its
// engine with: the paper pipeline, plus the community detector when
// both is set — what `plotfind -detectors findplotters,community`
// builds.
func newDetectors(cfg core.Config, both bool) ([]core.Detector, error) {
	pd, err := core.NewPaperDetector(cfg)
	if err != nil {
		return nil, err
	}
	if !both {
		return []core.Detector{pd}, nil
	}
	ccfg := community.DefaultConfig()
	ccfg.Metrics = cfg.Metrics
	cd, err := community.New(ccfg)
	if err != nil {
		return nil, err
	}
	return []core.Detector{pd, cd}, nil
}

// batchRef is the reference computation: the batch extractor and the
// monolithic pipeline (plus the community detector) over exactly the
// records of one window — the path no streaming workload takes.
func batchRef(index int, records []flow.Record, w flow.Window, internal func(flow.IP) bool, both bool) (windowRef, bool, error) {
	cfg := core.DefaultConfig()
	src := flow.ExtractFeatureSet(records, flow.FeatureOptions{Hosts: internal, NewPeerGrace: cfg.NewPeerGrace}, w)
	if src.Hosts() == 0 {
		return windowRef{}, false, nil
	}
	dets, err := newDetectors(cfg, both)
	if err != nil {
		return windowRef{}, false, err
	}
	var detections []*core.Detection
	for _, det := range dets {
		d, err := det.Detect(src)
		if err != nil {
			return windowRef{}, false, fmt.Errorf("reference window %d: %w", index, err)
		}
		detections = append(detections, d)
	}
	n := 0
	for _, f := range src.Features() {
		n += f.Flows
	}
	return refOf(index, src.Hosts(), n, detections), true, nil
}

// tumblingRefs cuts start-ordered records into n tumbling windows of
// the given length from origin and computes each non-empty window's
// batch reference.
func tumblingRefs(records []flow.Record, origin time.Time, length time.Duration, n int, internal func(flow.IP) bool, both bool) ([]windowRef, error) {
	var refs []windowRef
	lo := 0
	for w := 0; w < n; w++ {
		win := flow.Window{From: origin.Add(time.Duration(w) * length), To: origin.Add(time.Duration(w+1) * length)}
		hi := lo + sort.Search(len(records)-lo, func(i int) bool { return !records[lo+i].Start.Before(win.To) })
		ref, ok, err := batchRef(w, records[lo:hi], win, internal, both)
		if err != nil {
			return nil, err
		}
		if ok {
			refs = append(refs, ref)
		}
		lo = hi
	}
	return refs, nil
}

// expectedSeed is the one seed whose outcome is committed: every
// workload's windows at every size, whichever path computed them. Any
// other seed is checked against the batch reference alone.
const expectedSeed = 42

//go:embed expected.json
var expectedJSON []byte

type expectedSet map[string]map[string][]windowRef // size → workload → windows

func loadExpected() (expectedSet, error) {
	var set expectedSet
	if err := json.Unmarshal(expectedJSON, &set); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return set, nil
}

// updateExpected pins one workload's windows in the expected.json on
// disk (-update), found from the repository root or from this
// directory. The file is embedded at build time, so the next build is
// the first to check against it.
func updateExpected(size, workload string, refs []windowRef) error {
	path := filepath.Join("bench", "expected.json")
	if _, err := os.Stat(path); err != nil {
		path = "expected.json"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	set := expectedSet{}
	if err := json.Unmarshal(raw, &set); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if set[size] == nil {
		set[size] = map[string][]windowRef{}
	}
	set[size][workload] = refs
	if raw, err = json.MarshalIndent(set, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
