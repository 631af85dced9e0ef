package xpathest

import (
	"io"

	"xpathest/internal/histogram"
	"xpathest/internal/interval"
	"xpathest/internal/pathenc"
	"xpathest/internal/poshist"
	"xpathest/internal/summaryio"
	"xpathest/internal/workload"
	"xpathest/internal/xpath"
	"xpathest/internal/xsketch"
)

func summaryEncode(w io.Writer, lab *pathenc.Labeling, ps *histogram.PSet, os *histogram.OSet) error {
	return summaryio.Encode(w, lab.Table, lab.Distinct(), ps, os)
}

func summaryDecodeLimited(r io.Reader, maxBytes int64) (*pathenc.Labeling, *histogram.PSet, *histogram.OSet, error) {
	p, err := summaryio.DecodeLimited(r, maxBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	return pathenc.EstimationLabeling(p.Table, p.Distinct), p.P, p.O, nil
}

// summaryDecodeBytes is the whole-file variant: data must hold exactly
// one stream, with trailing bytes rejected as corruption.
func summaryDecodeBytes(data []byte, maxBytes int64) (*pathenc.Labeling, *histogram.PSet, *histogram.OSet, error) {
	p, err := summaryio.DecodeBytes(data, maxBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	return pathenc.EstimationLabeling(p.Table, p.Distinct), p.P, p.O, nil
}

// pidRefBytes mirrors the summary cost model: a path-id reference is 2
// bytes up to 65535 distinct ids, 4 beyond.
func pidRefBytes(numDistinct int) int {
	if numDistinct < 1<<16 {
		return 2
	}
	return 4
}

// XSketchSummary wraps the reimplemented XSketch comparator so
// examples and benchmarks can reproduce the paper's Figure 11
// comparison through the public API.
type XSketchSummary struct {
	sk *xsketch.Synopsis
}

// BuildXSketch constructs an XSketch synopsis for the document within
// the given byte budget. Order axes are not supported by XSketch.
func (d *Document) BuildXSketch(budgetBytes int) *XSketchSummary {
	return &XSketchSummary{sk: xsketch.Build(d.doc, budgetBytes)}
}

// Estimate returns XSketch's selectivity estimate.
func (x *XSketchSummary) Estimate(query string) (float64, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	return x.sk.Estimate(p)
}

// SizeBytes returns the synopsis size under its cost model.
func (x *XSketchSummary) SizeBytes() int { return x.sk.SizeBytes() }

// PositionHistogram wraps the reimplemented position-histogram
// estimator of Wu, Patel and Jagadish (EDBT 2002) — the alternative
// approach the paper's Section 8 discusses. It captures containment
// only, so child and descendant steps estimate identically (the
// documented limitation the "poshist" experiment quantifies).
type PositionHistogram struct {
	h *poshist.Histogram
}

// BuildPositionHistogram constructs per-tag 2D position histograms on
// a g×g grid over the document's interval labels.
func (d *Document) BuildPositionHistogram(gridSize int) *PositionHistogram {
	return &PositionHistogram{h: poshist.Build(d.doc, interval.Build(d.doc), gridSize)}
}

// Estimate returns the position histogram's selectivity estimate.
// Order axes are not supported.
func (p *PositionHistogram) Estimate(query string) (float64, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	return p.h.Estimate(q)
}

// SizeBytes returns the histogram size under its cost model.
func (p *PositionHistogram) SizeBytes() int { return p.h.SizeBytes() }

// WorkloadQuery is one generated benchmark query with its exact
// selectivity.
type WorkloadQuery struct {
	Query         string
	Exact         int
	HasOrderAxis  bool
	TargetInTrunk bool
}

// WorkloadOptions controls GenerateWorkload; zero values take the
// paper's parameters (4000 simple + 4000 branch attempts, sizes 3–12).
type WorkloadOptions struct {
	Seed                 int64
	NumSimple, NumBranch int
}

// GenerateWorkload builds the Section 7 query workload for the
// document: random positive simple, branch and order queries with
// their exact selectivities.
func (d *Document) GenerateWorkload(opts WorkloadOptions) []WorkloadQuery {
	w := workload.Generate(d.doc, d.lab, workload.Config{
		Seed:      opts.Seed,
		NumSimple: opts.NumSimple,
		NumBranch: opts.NumBranch,
	})
	var out []WorkloadQuery
	add := func(qs []workload.Query, order bool) {
		for _, q := range qs {
			out = append(out, WorkloadQuery{
				Query:         q.Path.String(),
				Exact:         q.Exact,
				HasOrderAxis:  order,
				TargetInTrunk: q.TargetInTrunk,
			})
		}
	}
	add(w.Simple, false)
	add(w.Branch, false)
	add(w.OrderBranch, true)
	add(w.OrderTrunk, true)
	return out
}
