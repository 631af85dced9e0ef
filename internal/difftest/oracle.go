package difftest

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"

	"xpathest"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// SummaryConfig names one synopsis construction the oracle runs the
// estimator paths under.
type SummaryConfig struct {
	PVariance float64
	OVariance float64
	Exact     bool
}

func (c SummaryConfig) String() string {
	return fmt.Sprintf("pvar=%g ovar=%g exact=%v", c.PVariance, c.OVariance, c.Exact)
}

func (c SummaryConfig) options() xpathest.SummaryOptions {
	return xpathest.SummaryOptions{PVariance: c.PVariance, OVariance: c.OVariance, Exact: c.Exact}
}

// exactStats reports whether the config carries exact statistics —
// the premise of the hard exactness invariant.
func (c SummaryConfig) exactStats() bool {
	return c.Exact || (c.PVariance == 0 && c.OVariance == 0)
}

// DefaultConfigs is the synopsis sweep of one oracle run: the exact
// table source, its supposedly equivalent variance-0 histograms, and
// one lossy configuration inside the paper's recommended ranges.
func DefaultConfigs() []SummaryConfig {
	return []SummaryConfig{
		{Exact: true},
		{PVariance: 0, OVariance: 0},
		{PVariance: 2, OVariance: 4},
	}
}

// Invariant names one checked property; corpus entries and violation
// reports carry it.
type Invariant string

const (
	// InvPathsAgree: the six estimator paths — cold kernel, warmed
	// kernel, EstimateBatch, a summary serialized through summaryio and
	// read back, the epoch-keyed result cache's hit path, and a summary
	// built by SummarizeStream from the document's XML — return
	// bit-identical values (or identical errors). Estimation is a pure
	// function of (summary, query), and the streamed summary is the
	// tree-built one: it saves the same bytes and reports the same
	// Sizes.
	InvPathsAgree Invariant = "paths-agree"

	// InvNonNegative: every estimate is a finite value ≥ 0.
	InvNonNegative Invariant = "non-negative"

	// InvTagBound: an estimate never exceeds the document frequency of
	// the target's tag (hard under exact statistics; lossy histograms
	// get a small relative tolerance).
	InvTagBound Invariant = "tag-bound"

	// InvCase12Exact: §2 Cases 1–2 / Theorem 4.1 — on a non-recursive
	// document with exact statistics, a simple query (child/descendant
	// steps only, no predicates, no positional filters, no wildcard)
	// is estimated exactly.
	InvCase12Exact Invariant = "case12-exact"

	// InvPredMonotone: adding a predicate to the target step of a
	// linear no-order query cannot increase the estimate (the join
	// only ever prunes).
	InvPredMonotone Invariant = "pred-monotone"

	// InvExactAgree: ExactCount, IndexedCount (the structural-join
	// accelerated evaluator) and len(Matches) agree on the true count.
	InvExactAgree Invariant = "exact-agree"
)

// Violation is one invariant failure, self-contained enough to
// reproduce: the document XML, the query, and the synopsis config.
type Violation struct {
	Invariant Invariant
	Config    SummaryConfig
	Query     string
	Detail    string
	DocXML    string
	Seed      int64 // generating seed, when the harness produced the pair
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] query %s: %s", v.Invariant, v.Config, v.Query, v.Detail)
}

// Pair is one document prepared for differential checking.
type Pair struct {
	XML       string
	Doc       *xpathest.Document
	Tree      *xmltree.Document
	Recursive bool
}

// NewPair parses the XML through the public API (the same route user
// documents take) and the internal tree (for shrinking and the
// recursion classifier).
func NewPair(xmlStr string) (*Pair, error) {
	d, err := xpathest.ParseDocumentString(xmlStr)
	if err != nil {
		return nil, err
	}
	t, err := xmltree.ParseString(xmlStr)
	if err != nil {
		return nil, err
	}
	return &Pair{XML: xmlStr, Doc: d, Tree: t, Recursive: IsRecursive(t)}, nil
}

// PairFromTree serializes a built tree and re-parses it, so that every
// checked document also exercises the WriteXML/Parse roundtrip.
func PairFromTree(t *xmltree.Document) (*Pair, error) {
	var buf bytes.Buffer
	if err := t.WriteXML(&buf, false); err != nil {
		return nil, err
	}
	return NewPair(buf.String())
}

// Injected bugs for the harness self-test: the oracle must catch them
// and the shrinker must reduce them. They simulate kernel defects at
// the boundary where the oracle reads estimates, so the production
// kernel stays untouched.
const (
	// InjectNone is normal operation.
	InjectNone = ""
	// InjectOvercountDesc adds 1 to every estimate of a query with a
	// descendant step — a simulated join-kernel overcount. All six
	// paths are affected identically, so exactness and the tag bound
	// catch it, not path agreement.
	InjectOvercountDesc = "overcount-desc"
	// InjectSkewWarm perturbs only the warmed-kernel path — a simulated
	// memo-corruption bug; path agreement catches it.
	InjectSkewWarm = "skew-warm"
)

// Checker runs the oracle over (document, query) pairs.
type Checker struct {
	Configs []SummaryConfig

	// Inject enables a simulated bug (see the Inject constants).
	Inject string

	// TagBoundSlack is the relative tolerance of the tag-frequency
	// bound under lossy histograms (exact statistics always get 0).
	TagBoundSlack float64
}

// NewChecker returns a Checker over the default config sweep.
func NewChecker() *Checker {
	return &Checker{Configs: DefaultConfigs(), TagBoundSlack: 1e-6}
}

// Result aggregates one CheckDoc run.
type Result struct {
	Violations []Violation

	// QueriesChecked counts (query, config) combinations evaluated.
	QueriesChecked int

	// EstimatorRejected counts combinations where all estimator paths
	// consistently returned an error (unsupported query shapes).
	EstimatorRejected int

	// RelErrSum / RelErrN accumulate relative error of the warmed path
	// against the exact count over positive-selectivity queries, per
	// config — the soft accuracy budget input.
	RelErrSum map[SummaryConfig]float64
	RelErrN   map[SummaryConfig]int
}

func (r *Result) merge(o Result) {
	r.Violations = append(r.Violations, o.Violations...)
	r.QueriesChecked += o.QueriesChecked
	r.EstimatorRejected += o.EstimatorRejected
	if r.RelErrSum == nil {
		r.RelErrSum = map[SummaryConfig]float64{}
		r.RelErrN = map[SummaryConfig]int{}
	}
	for k, v := range o.RelErrSum {
		r.RelErrSum[k] += v
	}
	for k, v := range o.RelErrN {
		r.RelErrN[k] += v
	}
}

// estimate is one estimator-path outcome.
type estimate struct {
	val float64
	err error
}

func (e estimate) String() string {
	if e.err != nil {
		return "error: " + e.err.Error()
	}
	return fmt.Sprintf("%v (bits %#x)", e.val, math.Float64bits(e.val))
}

func sameOutcome(a, b estimate) bool {
	if (a.err != nil) != (b.err != nil) {
		return false
	}
	if a.err != nil {
		return a.err.Error() == b.err.Error()
	}
	return math.Float64bits(a.val) == math.Float64bits(b.val)
}

// perturb applies the injected bug to one path's outcome.
func (c *Checker) perturb(path, query string, e estimate) estimate {
	if e.err != nil {
		return e
	}
	switch c.Inject {
	case InjectOvercountDesc:
		if strings.Contains(query, "//") {
			e.val++
		}
	case InjectSkewWarm:
		if path == "warm" && strings.Contains(query, "//") {
			e.val++
		}
	}
	return e
}

// CheckDoc runs every query against the document under every synopsis
// config and returns the collected violations and accuracy tallies.
func (c *Checker) CheckDoc(p *Pair, queries []string) Result {
	res := Result{
		RelErrSum: map[SummaryConfig]float64{},
		RelErrN:   map[SummaryConfig]int{},
	}

	type exactOutcome struct {
		count int
		err   error
	}
	exacts := make([]exactOutcome, len(queries))
	for i, q := range queries {
		n, err := p.Doc.ExactCount(q)
		exacts[i] = exactOutcome{n, err}

		// exact-agree: the accelerated evaluator and the match list
		// must reproduce the plain evaluator (independent of any
		// summary config — checked once per query).
		if err == nil {
			if ni, ierr := p.Doc.IndexedCount(q); ierr != nil || ni != n {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvExactAgree, Query: q, DocXML: p.XML,
					Detail: fmt.Sprintf("ExactCount=%d IndexedCount=%d (err=%v)", n, ni, ierr),
				})
			}
			if ms, merr := p.Doc.Matches(q); merr != nil || len(ms) != n {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvExactAgree, Query: q, DocXML: p.XML,
					Detail: fmt.Sprintf("ExactCount=%d len(Matches)=%d (err=%v)", n, len(ms), merr),
				})
			}
		}
	}

	for _, cfg := range c.Configs {
		warm := p.Doc.BuildSummary(cfg.options())

		// Serialize/deserialize once per config; a failure here is a
		// paths-agree violation for every query (the path is gone).
		var rt *xpathest.Summary
		var buf bytes.Buffer
		rtErr := warm.Save(&buf)
		if rtErr == nil {
			rt, rtErr = xpathest.ReadSummary(bytes.NewReader(buf.Bytes()))
		}

		// The streamed path builds the config from the serialized
		// document in two streaming passes, without the tree.
		streamed, stErr := xpathest.SummarizeStream(func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(p.XML)), nil
		}, cfg.options())
		if stErr == nil {
			if d := summaryDiff(warm, streamed); d != "" {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvPathsAgree, Config: cfg, DocXML: p.XML,
					Detail: "streamed summary: " + d,
				})
			}
		}

		// Warm pass: run the whole workload once so the memoized kernel
		// maps are hot before the measured pass.
		for _, q := range queries {
			_, _ = warm.Estimate(q) // warming only; outcome re-read below
		}

		batch := warm.EstimateBatch(queries)

		// The cached path serves every query through the result cache's
		// hit path: populate via the warmed summary, then re-read. The
		// compared value is exactly what a second client would be served
		// from cache.
		cache := xpathest.NewEstimateCache(1 << 20)
		// The harness owns the only handle on this cache and never swaps
		// a registry under it, so one synthetic epoch covers the run —
		// held in a local so every cache call demonstrably shares it.
		cacheEpoch := uint64(1)

		for i, q := range queries {
			res.QueriesChecked++

			cold := p.Doc.BuildSummary(cfg.options())
			cv, cerr := cold.Estimate(q)
			wv, werr := warm.Estimate(q)
			paths := map[string]estimate{
				"cold":  c.perturb("cold", q, estimate{cv, cerr}),
				"warm":  c.perturb("warm", q, estimate{wv, werr}),
				"batch": c.perturb("batch", q, estimate{batch[i].Estimate, batch[i].Err}),
			}
			if rtErr != nil {
				paths["roundtrip"] = estimate{0, fmt.Errorf("summary roundtrip unavailable: %w", rtErr)}
			} else {
				rv, rerr := rt.Estimate(q)
				paths["roundtrip"] = c.perturb("roundtrip", q, estimate{rv, rerr})
			}

			if stErr != nil {
				paths["streamed"] = estimate{0, fmt.Errorf("streamed summary unavailable: %w", stErr)}
			} else {
				sv, serr := streamed.Estimate(q)
				paths["streamed"] = c.perturb("streamed", q, estimate{sv, serr})
			}

			var cached estimate
			if qc, cerr := xpathest.CompileQuery(q); cerr != nil {
				cached = estimate{0, cerr}
			} else if _, err := cache.EstimateQuery(cacheEpoch, "difftest", warm, qc); err != nil {
				cached = estimate{0, err}
			} else if hv, ok := cache.Get(cacheEpoch, "difftest", qc); !ok {
				cached = estimate{0, fmt.Errorf("result cache dropped a just-stored estimate")}
			} else {
				cached = estimate{hv, nil}
			}
			paths["cached"] = c.perturb("cached", q, cached)

			ref := paths["cold"]
			for _, name := range []string{"warm", "batch", "roundtrip", "cached", "streamed"} {
				if !sameOutcome(ref, paths[name]) {
					res.Violations = append(res.Violations, Violation{
						Invariant: InvPathsAgree, Config: cfg, Query: q, DocXML: p.XML,
						Detail: fmt.Sprintf("cold=%v %s=%v", ref, name, paths[name]),
					})
				}
			}

			if ref.err != nil {
				res.EstimatorRejected++
				continue
			}
			est := ref.val
			exact := exacts[i]

			if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvNonNegative, Config: cfg, Query: q, DocXML: p.XML,
					Detail: fmt.Sprintf("estimate %v", est),
				})
				continue
			}

			if d := c.checkTagBound(p, cfg, q, est); d != "" {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvTagBound, Config: cfg, Query: q, DocXML: p.XML, Detail: d,
				})
			}

			if cfg.exactStats() && !p.Recursive && exact.err == nil && isCase12(q) {
				if est != float64(exact.count) {
					res.Violations = append(res.Violations, Violation{
						Invariant: InvCase12Exact, Config: cfg, Query: q, DocXML: p.XML,
						Detail: fmt.Sprintf("estimate %v, exact %d", est, exact.count),
					})
				}
			}

			if d := c.checkPredMonotone(warm, q, est); d != "" {
				res.Violations = append(res.Violations, Violation{
					Invariant: InvPredMonotone, Config: cfg, Query: q, DocXML: p.XML, Detail: d,
				})
			}

			if exact.err == nil && exact.count > 0 {
				res.RelErrSum[cfg] += math.Abs(est-float64(exact.count)) / float64(exact.count)
				res.RelErrN[cfg]++
			}
		}
	}
	return res
}

// summaryDiff reports how got's Save bytes or Sizes differ from
// want's, or "" when they agree.
func summaryDiff(want, got *xpathest.Summary) string {
	var wb, gb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		return "saving the reference: " + err.Error()
	}
	if err := got.Save(&gb); err != nil {
		return "saving: " + err.Error()
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		return fmt.Sprintf("Save bytes differ (%d vs %d bytes)", gb.Len(), wb.Len())
	}
	if g, w := got.Sizes(), want.Sizes(); g != w {
		return fmt.Sprintf("Sizes %+v, want %+v", g, w)
	}
	return ""
}

// checkTagBound verifies est ≤ frequency of the target tag. Exact
// statistics get no slack; lossy histograms get TagBoundSlack.
func (c *Checker) checkTagBound(p *Pair, cfg SummaryConfig, q string, est float64) string {
	path, err := xpath.Parse(q)
	if err != nil {
		return ""
	}
	tgt, err := path.TargetStep()
	if err != nil {
		return ""
	}
	bound := float64(p.Doc.TagCount(tgt.Tag))
	slack := 0.0
	if !cfg.exactStats() {
		slack = c.TagBoundSlack
	}
	if est > bound*(1+slack)+slack {
		return fmt.Sprintf("estimate %v exceeds frequency %v of target tag %q", est, bound, tgt.Tag)
	}
	return ""
}

// isCase12 reports whether the query is in the exactly-estimable class
// of §2 Cases 1–2 / Theorem 4.1: a linear child/descendant path with
// no predicates, positional filters, order axes or wildcards, whose
// target is its last step.
func isCase12(q string) bool {
	p, err := xpath.Parse(q)
	if err != nil {
		return false
	}
	return isLinear(p) && targetIsLast(p)
}

// isLinear reports a predicate-free, order-free, filter-free,
// wildcard-free path.
func isLinear(p *xpath.Path) bool {
	for _, s := range p.Steps {
		if len(s.Preds) > 0 || s.Axis.IsOrder() || s.Pos != xpath.PosNone || s.Tag == "*" {
			return false
		}
	}
	return true
}

func targetIsLast(p *xpath.Path) bool {
	tgt, err := p.TargetStep()
	if err != nil || len(p.Steps) == 0 {
		return false
	}
	return tgt == p.Steps[len(p.Steps)-1]
}

// checkPredMonotone runs the metamorphic predicate test on linear
// queries: appending a predicate to the target step only adds a join
// constraint, so the estimate cannot grow, whatever the statistics
// source. Returns a non-empty detail on violation.
func (c *Checker) checkPredMonotone(s *xpathest.Summary, q string, base float64) string {
	p, err := xpath.Parse(q)
	if err != nil || !isLinear(p) {
		return ""
	}
	tgt, err := p.TargetStep()
	if err != nil {
		return ""
	}
	// The added predicate reuses the query's own first tag — present in
	// the document alphabet, deterministic, and frequently selective.
	predTag := p.Steps[0].Tag
	aug := p.Clone()
	augTgt, err := aug.TargetStep()
	if err != nil {
		return ""
	}
	augTgt.Preds = append(augTgt.Preds, &xpath.Path{Steps: []*xpath.Step{{Axis: xpath.Descendant, Tag: predTag}}})
	augEst, err := s.Estimate(aug.String())
	if err != nil {
		return "" // the augmented query may be rejected; nothing to compare
	}
	if c.Inject == InjectOvercountDesc && strings.Contains(aug.String(), "//") && !strings.Contains(q, "//") {
		// Keep the injected-bug simulation coherent: the perturbation
		// applies to whatever the kernel estimates.
		augEst++
	}
	if augEst > base*(1+1e-12)+1e-9 {
		return fmt.Sprintf("estimate %v grew to %v after adding predicate [//%s] to target %q", base, augEst, predTag, tgt.Tag)
	}
	return ""
}
