package flow

// FeatureSource supplies one detection window's worth of per-host
// features to the detection pipeline. It is the seam between feature
// accumulation and detection: the batch extractor (ExtractFeatureSet),
// the incremental StreamExtractor, and the sharded store behind
// internal/engine's windowed detector all implement it, so
// core.NewAnalysisFromSource can consume any of them without knowing how
// the features were built.
type FeatureSource interface {
	// Features returns the per-host feature map. Implementations may
	// return a live view; callers must not mutate it.
	Features() map[IP]*HostFeatures
	// Window returns the observation bounds the features cover. A zero
	// Window means the bounds are unknown (e.g. a batch extraction whose
	// caller never declared them).
	Window() Window
}

// ContactSource is the flow-graph side of the feature seam: a source
// that can also report, per monitored host, the set of destination
// addresses the host contacted inside the window. Detectors that reason
// about structure between hosts (destination-overlap graphs, mutual-
// contact communities) consume this interface; the per-host percentile
// pipeline never needs it. Every FeatureSource this package produces —
// batch extraction, panes, pane merges, and the live extractors —
// implements it.
type ContactSource interface {
	// Contacts returns each host's contacted destinations in ascending
	// address order. Implementations may return a live view; callers
	// must not mutate it. Nil means the source did not track contacts.
	Contacts() map[IP][]IP
}

// Sketch is one host's θ_hm histogram signature: the centers and masses
// of the non-empty bins of its interstitial-time histogram — all the
// pairwise EMD reads, at a fraction of the raw samples' size.
type Sketch struct {
	Positions []float64
	Weights   []float64
}

// SketchSource is the θ_hm side of the feature seam: a source whose
// hosts arrive with their signatures already built (a merged shard
// summary — the raw Interstitials stayed on the shard).
type SketchSource interface {
	// Sketches returns the per-host signatures; a host with too few
	// samples to cluster has no entry. Nil means the source carries raw
	// samples and θ_hm builds the signatures itself.
	Sketches() map[IP]Sketch
}

// FeatureSet is the plain concrete FeatureSource: a feature map plus the
// window it covers. It is what batch extraction and pane merging
// produce.
type FeatureSet struct {
	feats    map[IP]*HostFeatures
	contacts map[IP][]IP
	sketches map[IP]Sketch
	window   Window
}

// NewFeatureSet wraps an already-extracted feature map with its window
// metadata.
func NewFeatureSet(feats map[IP]*HostFeatures, window Window) *FeatureSet {
	if feats == nil {
		feats = map[IP]*HostFeatures{}
	}
	return &FeatureSet{feats: feats, window: window}
}

// WithContacts attaches per-host contacted-destination sets (ascending
// address order per host), making the set a useful ContactSource.
// Returns fs for chaining.
func (fs *FeatureSet) WithContacts(contacts map[IP][]IP) *FeatureSet {
	fs.contacts = contacts
	return fs
}

// WithSketches attaches per-host θ_hm signatures, making the set a
// SketchSource. Returns fs for chaining.
func (fs *FeatureSet) WithSketches(sketches map[IP]Sketch) *FeatureSet {
	fs.sketches = sketches
	return fs
}

// Features returns the per-host feature map.
func (fs *FeatureSet) Features() map[IP]*HostFeatures { return fs.feats }

// Contacts implements ContactSource (nil when never attached).
func (fs *FeatureSet) Contacts() map[IP][]IP { return fs.contacts }

// Sketches implements SketchSource (nil when never attached).
func (fs *FeatureSet) Sketches() map[IP]Sketch { return fs.sketches }

// Window returns the observation bounds.
func (fs *FeatureSet) Window() Window { return fs.window }

// Hosts returns the number of hosts with features.
func (fs *FeatureSet) Hosts() int { return len(fs.feats) }

// ExtractFeatureSet is the batch FeatureSource implementation: it scans
// the records once (ExtractFeatures) and derives the window from the
// records' start-time span when the caller passes a zero window (the
// derived To is one nanosecond past the last start so the half-open
// window contains every record). The result carries contact sets, so it
// is a full ContactSource.
func ExtractFeatureSet(records []Record, opts FeatureOptions, window Window) *FeatureSet {
	if window == (Window{}) && len(records) > 0 {
		window.From = records[0].Start
		last := records[0].Start
		for i := range records {
			if records[i].Start.Before(window.From) {
				window.From = records[i].Start
			}
			if records[i].Start.After(last) {
				last = records[i].Start
			}
		}
		window.To = last.Add(1)
	}
	builders := extractBuilders(records, opts)
	return NewFeatureSet(featuresOfBuilders(builders), window).
		WithContacts(contactsOfBuilders(builders))
}
