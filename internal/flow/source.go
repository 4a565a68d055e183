package flow

// FeatureSource is the one seam between feature accumulation and
// detection: a sealed detection window's per-host features, contact sets
// and θ_hm signatures. *FeatureSet is its one implementation — batch
// extraction (ExtractFeatureSet), a sealed pane (Pane.FeatureSet), a pane
// merge (MergePanes) and a merged shard summary all produce one — so a
// detector only ever sees a window once it is sealed, never a store that
// is still accumulating.
type FeatureSource interface {
	// Features returns the per-host feature map. Callers must not mutate
	// it.
	Features() map[IP]*HostFeatures
	// Contacts returns each host's contacted destinations in ascending
	// address order (the flow-graph detectors' input). Nil means the
	// source did not track contacts. Callers must not mutate it: a
	// sealed pane's contact sets share one array.
	Contacts() map[IP][]IP
	// Sketches returns the per-host θ_hm signatures; a host with too few
	// samples to cluster has no entry. Nil means the source carries raw
	// samples and θ_hm builds the signatures itself.
	Sketches() map[IP]Sketch
	// Window returns the observation bounds the features cover. A zero
	// Window means the bounds are unknown (e.g. a batch extraction whose
	// caller never declared them).
	Window() Window
}

// Sketch is one host's θ_hm histogram signature: the centers and masses
// of the non-empty bins of its interstitial-time histogram — all the
// pairwise EMD reads, at a fraction of the raw samples' size.
type Sketch struct {
	Positions []float64
	Weights   []float64
}

// FeatureSet is the FeatureSource: a feature map, optional contact sets
// and signatures, and the window they cover.
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
// address order per host). Returns fs for chaining.
func (fs *FeatureSet) WithContacts(contacts map[IP][]IP) *FeatureSet {
	fs.contacts = contacts
	return fs
}

// WithSketches attaches per-host θ_hm signatures. Returns fs for
// chaining.
func (fs *FeatureSet) WithSketches(sketches map[IP]Sketch) *FeatureSet {
	fs.sketches = sketches
	return fs
}

// Features returns the per-host feature map.
func (fs *FeatureSet) Features() map[IP]*HostFeatures { return fs.feats }

// Contacts returns the contact sets (nil when never attached).
func (fs *FeatureSet) Contacts() map[IP][]IP { return fs.contacts }

// Sketches returns the θ_hm signatures (nil when never attached).
func (fs *FeatureSet) Sketches() map[IP]Sketch { return fs.sketches }

// Window returns the observation bounds.
func (fs *FeatureSet) Window() Window { return fs.window }

// Hosts returns the number of hosts with features.
func (fs *FeatureSet) Hosts() int { return len(fs.feats) }

// ExtractFeatureSet is batch extraction as a FeatureSource: it scans the
// records once (ExtractFeatures) and derives the window from the
// records' start-time span when the caller passes a zero window (the
// derived To is one nanosecond past the last start so the half-open
// window contains every record). The result carries contact sets.
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
	fs := extract(records, opts).FeatureSet()
	fs.window = window
	return fs
}
