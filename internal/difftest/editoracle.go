package difftest

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"xpathest"
	"xpathest/internal/core"
	"xpathest/internal/delta"
	"xpathest/internal/guard"
	"xpathest/internal/histogram"
	"xpathest/internal/interval"
	"xpathest/internal/poshist"
	"xpathest/internal/stats"
	"xpathest/internal/summaryio"
	"xpathest/internal/workload"
	"xpathest/internal/xmltree"
)

// The edit-script oracle's invariants. They pin Summary.Apply's
// contract: incremental maintenance must be indistinguishable — to the
// bit — from throwing the summary away and rebuilding it over the
// edited document.
const (
	// InvEditApplyRebuild: after each applied op the maintained
	// summary's serialized bytes, its estimates (Float64bits), and the
	// document's position histogram all equal those of a from-scratch
	// build over a fresh parse of the edited document.
	InvEditApplyRebuild Invariant = "edit-apply-rebuild"

	// InvEditInverse: applying the op's reported inverse restores the
	// pre-op summary bytes exactly, and re-applying the op restores the
	// post-op bytes — every generator op pair is its own metamorphic
	// test.
	InvEditInverse Invariant = "edit-inverse"
)

// editGridSize is the position-histogram grid of the oracle's poshist
// leg; any fixed size pins Renumber correctness equally well.
const editGridSize = 8

// CLI names of the edit-mode injected bugs (xpestdiff -edits -inject);
// they map onto delta.InjectSkipRebucket and delta.InjectStaleOrderCell.
const (
	InjectSkipRebucket   = "skip-rebucket"
	InjectStaleOrderCell = "stale-order-cell"
)

// EditViolation is one edit-oracle failure, self-contained enough to
// reproduce: the starting document, the full script, and the step at
// which the invariant broke.
type EditViolation struct {
	Invariant Invariant
	Config    SummaryConfig
	Seed      int64
	Step      int // index of the failing op
	Detail    string
	DocXML    string
	Ops       []xpathest.EditOp
}

func (v EditViolation) String() string {
	return fmt.Sprintf("%s [%s] step %d/%d: %s", v.Invariant, v.Config, v.Step, len(v.Ops), v.Detail)
}

// EditChecker runs the edit-script oracle: one document, one op
// script, checked under every synopsis config.
type EditChecker struct {
	Configs []SummaryConfig

	// Inject selects a deliberately broken maintenance variant (the
	// harness self-test; see delta.Inject).
	Inject delta.Inject

	// QueriesPerStep is the size of the random query batch whose
	// estimates are compared bit-for-bit after every op (default 6).
	QueriesPerStep int
}

// NewEditChecker returns an EditChecker over the default config sweep.
func NewEditChecker() *EditChecker {
	return &EditChecker{Configs: DefaultConfigs(), QueriesPerStep: 6}
}

// EditScriptResult aggregates one CheckScript run.
type EditScriptResult struct {
	Violations []EditViolation

	// StepsChecked counts (op, config) combinations applied; FastOps
	// and RebuildOps how delta.Apply routed them.
	StepsChecked int
	FastOps      int
	RebuildOps   int
}

// editState is the internal-level summary state the oracle maintains —
// the same structures Summary.Apply maintains, held directly so the
// checker can reach delta.Apply's injection hooks.
type editState struct {
	st     *delta.State
	pv, ov float64
	exact  bool
}

// newEditState builds the state the way the root package does: one
// scan parses, labels and collects, then the tables are bucketed.
func newEditState(xmlStr string, cfg SummaryConfig) (*editState, error) {
	c := stats.NewCollector(true)
	doc, err := xmltree.ParseContext(nil, strings.NewReader(xmlStr), guard.Limits{}, c)
	if err != nil {
		return nil, err
	}
	tables := c.Tables()
	pv, ov := cfg.PVariance, cfg.OVariance
	if cfg.Exact {
		pv, ov = 0, 0
	}
	n := tables.Labeling.NumDistinct()
	ps := histogram.BuildPSet(tables.Freq, n, pv)
	os := histogram.BuildOSet(tables.Order, ps, n, ov)
	return &editState{
		st:    &delta.State{Doc: doc, Lab: tables.Labeling, Tables: tables, PS: ps, OS: os},
		pv:    pv,
		ov:    ov,
		exact: cfg.Exact,
	}, nil
}

// bytes serializes the maintained summary structures — the compared
// artifact of the bit-identity contract.
func (e *editState) bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := summaryio.Encode(&buf, e.st.Lab.Table, e.st.Lab.Distinct(), e.st.PS, e.st.OS); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// estimator returns the kernel over the state's statistics source —
// tables for exact configs (whose entry order the serialized bytes do
// not pin), histograms otherwise.
func (e *editState) estimator() *core.Estimator {
	if e.exact {
		return core.New(e.st.Lab, core.TableSource{Tables: e.st.Tables})
	}
	return core.New(e.st.Lab, core.HistogramSource{P: e.st.PS, O: e.st.OS})
}

// xml serializes the current document.
func (e *editState) xml() (string, error) {
	var buf bytes.Buffer
	if err := e.st.Doc.WriteXML(&buf, false); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// toDeltaOp converts a public op, parsing the insert payload fresh so
// repeated applications never share subtree nodes.
func toDeltaOp(op xpathest.EditOp) (delta.Op, error) {
	if op.Insert {
		sub, err := xmltree.ParseString(op.XML)
		if err != nil {
			return delta.Op{}, err
		}
		return delta.Op{Kind: delta.Insert, Loc: op.Loc, Index: op.Index, Subtree: sub.Root}, nil
	}
	return delta.Op{Kind: delta.Delete, Loc: op.Loc}, nil
}

// apply runs one op through delta.Apply under the checker's injection.
func (c *EditChecker) apply(e *editState, op delta.Op) (delta.Result, error) {
	return delta.Apply(e.st, delta.Script{Ops: []delta.Op{op}}, delta.Options{
		PVariance: e.pv, OVariance: e.ov, Inject: c.Inject,
	})
}

// CheckScript applies the script op by op under every config,
// comparing the maintained state against a from-scratch rebuild after
// each op and running the inverse metamorphic test. A config stops at
// its first violation (a diverged state only compounds). The error is
// non-nil only for harness-level problems — an unparsable document or
// a script the generator should never emit — never for violations.
func (c *EditChecker) CheckScript(docXML string, ops []xpathest.EditOp, seed int64) (EditScriptResult, error) {
	var res EditScriptResult
	qn := c.QueriesPerStep
	if qn <= 0 {
		qn = 6
	}
	for ci, cfg := range c.Configs {
		e, err := newEditState(docXML, cfg)
		if err != nil {
			return res, fmt.Errorf("difftest: edit state [%s]: %v", cfg, err)
		}
		v, err := c.checkConfig(e, cfg, docXML, ops, seed, qn, ci == 0, &res)
		if err != nil {
			return res, err
		}
		if v != nil {
			v.Seed = seed
			res.Violations = append(res.Violations, *v)
		}
	}
	return res, nil
}

// checkConfig runs the per-op loop of one config, returning the first
// violation (nil if the whole script holds).
func (c *EditChecker) checkConfig(e *editState, cfg SummaryConfig, docXML string, ops []xpathest.EditOp, seed int64, qn int, poshistLeg bool, res *EditScriptResult) (*EditViolation, error) {
	violation := func(inv Invariant, step int, detail string) *EditViolation {
		return &EditViolation{Invariant: inv, Config: cfg, Step: step, Detail: detail, DocXML: docXML, Ops: ops}
	}
	for i, pub := range ops {
		op, err := toDeltaOp(pub)
		if err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: %v", i, err)
		}
		prev, err := e.bytes()
		if err != nil {
			return nil, err
		}
		applied, err := c.apply(e, op)
		if err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: %v", i, err)
		}
		res.StepsChecked++
		res.FastOps += applied.FastOps
		res.RebuildOps += applied.RebuildOps

		// Apply-vs-rebuild: serialize the edited document, build from
		// scratch, compare bytes, estimates, and the position histogram.
		editedXML, err := e.xml()
		if err != nil {
			return nil, err
		}
		fresh, err := newEditState(editedXML, cfg)
		if err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: rebuild: %v", i, err)
		}
		after, err := e.bytes()
		if err != nil {
			return nil, err
		}
		want, err := fresh.bytes()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(after, want) {
			return violation(InvEditApplyRebuild, i,
				fmt.Sprintf("summary bytes diverge from rebuild (apply %d bytes, rebuild %d bytes)", len(after), len(want))), nil
		}
		if d := compareEstimates(e, fresh, seed, i, qn); d != "" {
			return violation(InvEditApplyRebuild, i, d), nil
		}
		if poshistLeg {
			got := poshist.Build(e.st.Doc, interval.Build(e.st.Doc), editGridSize).Fingerprint()
			wantFP := poshist.Build(fresh.st.Doc, interval.Build(fresh.st.Doc), editGridSize).Fingerprint()
			if got != wantFP {
				return violation(InvEditApplyRebuild, i, "position histogram diverges from rebuild:\napply:\n"+got+"rebuild:\n"+wantFP), nil
			}
		}

		// Metamorphic inverse: undo restores the pre-op bytes, redo the
		// post-op bytes.
		if len(applied.Inverse.Ops) != 1 {
			return nil, fmt.Errorf("difftest: edit op %d: inverse has %d ops, want 1", i, len(applied.Inverse.Ops))
		}
		if _, err := c.apply(e, applied.Inverse.Ops[0]); err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: applying inverse: %v", i, err)
		}
		undone, err := e.bytes()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(undone, prev) {
			return violation(InvEditInverse, i, "inverse did not restore the pre-op summary bytes"), nil
		}
		redo, err := toDeltaOp(pub)
		if err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: %v", i, err)
		}
		if _, err := c.apply(e, redo); err != nil {
			return nil, fmt.Errorf("difftest: edit op %d: re-applying: %v", i, err)
		}
		redone, err := e.bytes()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(redone, after) {
			return violation(InvEditInverse, i, "re-applying after the inverse did not restore the post-op summary bytes"), nil
		}
	}
	return nil, nil
}

// compareEstimates runs a random query batch (drawn from the rebuilt
// labeling, so every query mentions live tags) through both kernels
// and demands bit-identical outcomes. Returns a non-empty detail on
// divergence.
func compareEstimates(applied, fresh *editState, seed int64, step, qn int) string {
	est := applied.estimator()
	ref := fresh.estimator()
	paths := workload.Random(fresh.st.Lab, workload.RandomConfig{
		Seed: seed ^ 0x7f4a7c15 ^ int64(step)<<20, // decorrelate from doc and script streams
		Num:  qn,
	})
	for _, p := range paths {
		q := p.String()
		gv, gerr := est.EstimateString(q)
		wv, werr := ref.EstimateString(q)
		if (gerr != nil) != (werr != nil) {
			return fmt.Sprintf("estimate %s: apply err=%v, rebuild err=%v", q, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if math.Float64bits(gv) != math.Float64bits(wv) {
			return fmt.Sprintf("estimate %s: apply %v (bits %#x), rebuild %v (bits %#x)",
				q, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
		}
	}
	return ""
}
