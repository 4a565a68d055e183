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
	// Community carries the mutual-contact graph and community summary
	// when the verdict came from the community detector; nil otherwise.
	Community *CommunityReport
}

// CommunityReport is the community detector's full per-window outcome.
type CommunityReport struct {
	// GraphHosts and GraphEdges size the mutual-contact graph.
	GraphHosts, GraphEdges int
	// Communities holds every detected community, sorted by label.
	Communities []Community
	// Flagged holds the labels of the communities whose members were
	// emitted as suspects, in ascending order.
	Flagged []flow.IP
}

// Community is one detected host group, canonically labeled by its
// smallest member address.
type Community struct {
	// Label is the community's canonical identifier: the smallest member.
	Label flow.IP
	// Members lists the community's hosts in ascending address order.
	Members []flow.IP
	// InternalEdges counts edges with both endpoints in the community.
	InternalEdges int
	// SharedContacts sums the shared-contact weight of internal edges.
	SharedContacts int
}

// AvgDegree returns the community's average internal degree — the
// density signal the detector scores on. Singletons score 0.
func (c *Community) AvgDegree() float64 {
	if len(c.Members) == 0 {
		return 0
	}
	return 2 * float64(c.InternalEdges) / float64(len(c.Members))
}

// AvgSharedContacts returns the mean shared-contact weight per internal
// edge (0 for edgeless communities).
func (c *Community) AvgSharedContacts() float64 {
	if c.InternalEdges == 0 {
		return 0
	}
	return float64(c.SharedContacts) / float64(c.InternalEdges)
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
