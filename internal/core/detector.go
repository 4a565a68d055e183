package core

import (
	"fmt"

	"plotters/internal/flow"
)

// Detection is one detector's verdict over a sealed detection window.
// It is the common currency of the multi-detector framework: the
// windowed engine collects one Detection per configured detector per
// window, and the evaluation suite scores and combines them (union,
// intersection, k-of-n vote).
type Detection struct {
	// Detector names the detector that produced this verdict (stable,
	// e.g. "findplotters" or "community").
	Detector string
	// Suspects is the detector's flagged host set.
	Suspects HostSet
	// Paper carries the full FindPlotters stage-by-stage outcome when
	// the verdict came from the paper pipeline; nil otherwise.
	Paper *Result
	// Details carries a detector-specific report (for the community
	// detector, its graph and community summary); may be nil.
	Details any
}

// Detector is the seam every per-window detector implements. The paper
// pipeline (PaperDetector) and the mutual-contact community detector
// (internal/community) are the two implementations; the windowed engine
// runs any number of them over each sealed window's FeatureSource.
//
// Detect must be deterministic in its input: the same feature source
// must always yield the same suspect set, whatever the accumulation
// path (batch, streamed, sharded) that built it.
type Detector interface {
	// Name returns the detector's stable identifier.
	Name() string
	// Detect runs the detector over one sealed window's features.
	Detect(src flow.FeatureSource) (*Detection, error)
}

// PaperName is the paper pipeline's detector identifier.
const PaperName = "findplotters"

// PaperDetector adapts the paper's FindPlotters pipeline to the
// Detector interface — the original hardcoded pipeline as one
// implementation among equals.
type PaperDetector struct {
	cfg Config
}

// NewPaperDetector wraps the paper pipeline at the given operating
// point.
func NewPaperDetector(cfg Config) (*PaperDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PaperDetector{cfg: cfg}, nil
}

// Name implements Detector.
func (d *PaperDetector) Name() string { return PaperName }

// Detect implements Detector: the full reduction → θ_vol → θ_churn →
// θ_hm pipeline over the source's features, with the complete
// stage-by-stage Result attached as Detection.Paper.
func (d *PaperDetector) Detect(src flow.FeatureSource) (*Detection, error) {
	analysis, err := NewAnalysisFromSource(src, d.cfg)
	if err != nil {
		return nil, err
	}
	res, err := analysis.FindPlotters()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name(), err)
	}
	return &Detection{
		Detector: d.Name(),
		Suspects: res.Suspects,
		Paper:    res,
	}, nil
}
