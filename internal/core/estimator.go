package core

import (
	"fmt"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xpath"
)

// Estimator estimates XPath selectivities from summary statistics.
type Estimator struct {
	lab *pathenc.Labeling
	src Source

	// kern is the summary-resident fast path: tag snapshots and
	// memoized edge-compatibility verdicts, shared (and safe) across
	// concurrent estimations.
	kern *kernel

	// trace receives human-readable derivation lines when set (only on
	// the private copy Explain makes; the shared Estimator keeps it
	// nil, preserving concurrency safety).
	trace *[]string
}

// New returns an estimator over the given labeling (for the encoding
// table the path join consults) and statistics source. The source must
// not be mutated afterwards: the estimator snapshots its statistics
// lazily and memoizes derived verdicts for the estimator's lifetime.
func New(lab *pathenc.Labeling, src Source) *Estimator {
	return &Estimator{lab: lab, src: src, kern: newKernel(lab, src)}
}

func (e *Estimator) tracef(format string, args ...interface{}) {
	if e.trace != nil {
		*e.trace = append(*e.trace, fmt.Sprintf(format, args...))
	}
}

// Explanation is a human-readable derivation of one estimate: which of
// the paper's formulas applied and the intermediate quantities.
type Explanation struct {
	Query string
	Value float64
	Steps []string
}

// String renders the derivation, one step per line.
func (x *Explanation) String() string {
	out := fmt.Sprintf("%s = %.4g\n", x.Query, x.Value)
	for _, s := range x.Steps {
		out += "  " + s + "\n"
	}
	return out
}

// Explain estimates the query while recording the derivation.
func (e *Estimator) Explain(p *xpath.Path) (*Explanation, error) {
	x := &Explanation{Query: p.String()}
	t := *e
	t.trace = &x.Steps
	v, err := t.Estimate(p)
	if err != nil {
		return nil, err
	}
	x.Value = v
	return x, nil
}

// ExplainString parses and explains a query.
func (e *Estimator) ExplainString(query string) (*Explanation, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Explain(p)
}

// EstimateString parses and estimates a query.
func (e *Estimator) EstimateString(query string) (float64, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	return e.Estimate(p)
}

// Estimate returns the estimated selectivity of the query's target
// node: the S_Q(n) of the paper. Supported queries are the paper's
// class: child/descendant steps, branch predicates, and at most one
// order-axis step (the standardized Q⃗ = q1[/q2/folls::q3] and its
// preceding/following variants).
func (e *Estimator) Estimate(p *xpath.Path) (float64, error) {
	tree, err := xpath.BuildTree(p)
	if err != nil {
		return 0, err
	}
	return e.EstimateTree(tree)
}

// EstimateTree is Estimate over a query tree already built from its
// path. Trees are read-only here, so one tree may be estimated any
// number of times, concurrently, against any estimator.
func (e *Estimator) EstimateTree(tree *xpath.Tree) (float64, error) {
	var (
		est float64
		err error
	)
	switch len(tree.Edges) {
	case 0:
		est, err = e.noOrder(nil, tree, fullInclude(tree), tree.Target)
	case 1:
		m := &joinMemo{}
		edge := tree.Edges[0]
		if !edge.SiblingOnly {
			est, err = e.convertAndEstimate(m, tree, edge)
		} else {
			est, err = e.orderEstimate(m, tree, edge)
		}
	default:
		return 0, fmt.Errorf("core: queries with multiple order axes are not supported: %w", guard.ErrMalformedQuery)
	}
	if err != nil {
		return 0, err
	}
	return e.clampToTag(tree.Target.Tag, est), nil
}

// joinMemo holds the path joins of one Estimate call. The order
// formulas join the same (tree, included-node set) several times —
// Equation (5) takes S_Q of the target and S_Q⃗ of both siblings, each
// sibling's Equation (3) joins Q⃗′ twice, and the preceding/following
// cap rejoins the whole tree — and a join is a pure function of the
// two, so a repeat returns the first result. A nil memo joins every
// time: queries without an order edge repeat no join.
type joinMemo struct {
	done []memoJoin
}

type memoJoin struct {
	tree *xpath.Tree
	inc  includeSet
	res  joinResult
}

// join returns pathJoin(k, tree, inc), joining at most once per
// distinct (tree, node set) in m. Callers only read the result.
func (m *joinMemo) join(k *kernel, tree *xpath.Tree, inc includeSet) (joinResult, error) {
	if m == nil {
		return pathJoin(k, tree, inc)
	}
	for i := range m.done {
		if d := &m.done[i]; d.tree == tree && sameNodes(tree, d.inc, inc) {
			return d.res, nil
		}
	}
	res, err := pathJoin(k, tree, inc)
	if err != nil {
		return joinResult{}, err
	}
	m.done = append(m.done, memoJoin{tree: tree, inc: inc, res: res})
	return res, nil
}

// sameNodes reports whether a and b select the same nodes of tree, a
// nil set selecting all of them (pathJoin's reading).
func sameNodes(tree *xpath.Tree, a, b includeSet) bool {
	for _, n := range tree.Nodes {
		if (a == nil || a[n]) != (b == nil || b[n]) {
			return false
		}
	}
	return true
}

// clampToTag caps an estimate at the target tag's total frequency: a
// query result is a set of target-tag elements, so its cardinality
// cannot exceed the tag's population. The downward formulas respect
// the bound by construction (they sum disjoint subsets of the tag's
// entries, scaled by factors at most 1), but the order-axis sums of
// Equations (3)–(5) count sibling witnesses per anchor and can
// overshoot the population when several anchors share targets.
func (e *Estimator) clampToTag(tag string, est float64) float64 {
	total := e.kern.snapshot().tagTotal(tag)
	if est > total {
		e.tracef("clamp: estimate %.6g exceeds tag population %.6g, capped", est, total)
		return total
	}
	return est
}

// RawJoinEstimate returns the uncorrected f_Q(n) of the target: the
// summed frequency of its surviving path ids after the path join,
// with no Equation (2) branch correction and order axes ignored. For
// trunk targets it equals Estimate; for branch targets it is the
// over-estimate that Example 4.3 illustrates. Exposed for ablation
// studies of the branch correction.
func (e *Estimator) RawJoinEstimate(p *xpath.Path) (float64, error) {
	tree, err := xpath.BuildTree(p)
	if err != nil {
		return 0, err
	}
	return e.rawJoin(tree)
}

// rawJoin is RawJoinEstimate over a built tree.
func (e *Estimator) rawJoin(tree *xpath.Tree) (float64, error) {
	joined, err := pathJoin(e.kern, tree, nil)
	if err != nil {
		return 0, err
	}
	return sumFreq(joined.pf(tree.Target)), nil
}

// SurvivingPids runs the path join on the full query and returns, per
// originating AST step, the path ids that survive. With exact
// statistics the join is sound — every element participating in a
// match carries a surviving pid — which is what makes it usable as a
// pre-filter for exact query execution (the structural-join use the
// labeling scheme was designed for; see package exec). The returned
// bitsets are the interned instances from the statistics source, so
// callers holding interned document labels can compare by pointer.
func (e *Estimator) SurvivingPids(p *xpath.Path) (map[*xpath.Step][]*bitset.Bitset, error) {
	tree, err := xpath.BuildTree(p)
	if err != nil {
		return nil, err
	}
	joined, err := pathJoin(e.kern, tree, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[*xpath.Step][]*bitset.Bitset, len(joined.nodes))
	for i := range joined.nodes {
		n, st := joined.nodes[i].n, joined.nodes[i].st
		if n.Step == nil {
			continue
		}
		pids := make([]*bitset.Bitset, len(st.pf))
		for i, pf := range st.pf {
			pids[i] = pf.Pid
		}
		out[n.Step] = pids
	}
	return out, nil
}

// noOrder estimates the target of the sub-query selected by inc,
// ignoring order edges: Theorem 4.1 when the target is in the trunk
// part, Equation (2) otherwise.
func (e *Estimator) noOrder(m *joinMemo, tree *xpath.Tree, inc includeSet, target *xpath.TreeNode) (float64, error) {
	joined, err := m.join(e.kern, tree, inc)
	if err != nil {
		return 0, err
	}
	base := 0.0
	if trunkSafe(target, inc) {
		base = sumFreq(joined.pf(target))
		e.tracef("target %s is in the trunk part: f_Q(%s) = %.4g (Theorem 4.1)", target.Tag, target.Tag, base)
	} else {
		// Equation (2): Q′ keeps only the target's root chain and its
		// own subtree; ni is the deepest trunk node above the target.
		incQ := chainPlusSubtree(inc, target)
		joinedQ, err := m.join(e.kern, tree, incQ)
		if err != nil {
			return 0, err
		}
		ni := deepestTrunkNode(target, inc)
		fQprimeN := sumFreq(joinedQ.pf(target))
		fQprimeNi := sumFreq(joinedQ.pf(ni))
		fQNi := sumFreq(joined.pf(ni))
		if fQprimeNi == 0 {
			e.tracef("target %s in a branch part: f_Q'(%s) = 0, estimate 0", target.Tag, ni.Tag)
			return 0, nil
		}
		base = fQprimeN * fQNi / fQprimeNi
		e.tracef("target %s in a branch part (Eq 2): f_Q'(%s)=%.4g × f_Q(%s)=%.4g / f_Q'(%s)=%.4g = %.4g",
			target.Tag, target.Tag, fQprimeN, ni.Tag, fQNi, ni.Tag, fQprimeNi, base)
	}
	return base * e.posAncestorFactor(joined, inc, target), nil
}

// posAncestorFactor scales a target estimate for positional filters on
// its strict query ancestors: each filtered ancestor keeps only its
// first-of-tag (or last-of-tag) instances, and under the Node
// Containment Uniformity Assumption the target shrinks by the same
// fraction — the surviving (filtered) frequency mass over the raw mass
// of the ancestor's surviving path ids. Filters on the target itself
// are already exact in its joined frequencies, and filters on other
// branches cannot change pure existence (a first-of-tag sibling exists
// iff any same-tag sibling does), so only ancestors need the factor.
func (e *Estimator) posAncestorFactor(joined joinResult, inc includeSet, target *xpath.TreeNode) float64 {
	snap := e.kern.snapshot()
	factor := 1.0
	for a := target.Parent; a != nil && !a.IsVRoot(); a = a.Parent {
		if !inc[a] || a.Step == nil || a.Step.Pos == xpath.PosNone {
			continue
		}
		st := joined.state(a)
		var filtered, unfiltered float64
		for i := range st.pf {
			filtered += st.pf[i].Freq
			// The parallel ids point straight at the snapshot rows, so
			// the unfiltered (raw) frequency is a column read.
			unfiltered += snap.cols.Freqs[st.ids[i]]
		}
		if unfiltered > 0 {
			factor *= filtered / unfiltered
		}
	}
	return factor
}

// trunkSafe reports whether the target lies in the trunk part of the
// included sub-query: no included branch hangs strictly above it, so
// the path join alone is the estimate (Theorem 4.1 and the trunk case
// of Section 4).
func trunkSafe(n *xpath.TreeNode, inc includeSet) bool {
	child := n
	for a := n.Parent; a != nil; a = a.Parent {
		for _, c := range a.Children {
			if c != child && inc[c] {
				return false
			}
		}
		child = a
	}
	return true
}

// deepestTrunkNode returns the deepest strict ancestor of n (within
// the query tree) that is trunk-safe — the paper's ni, the last node
// of q1. When the whole chain above n is branch-entangled (only
// possible through virtual-root anchoring) it falls back to the chain
// head.
func deepestTrunkNode(n *xpath.TreeNode, inc includeSet) *xpath.TreeNode {
	var chain []*xpath.TreeNode
	for cur := n.Parent; cur != nil && !cur.IsVRoot(); cur = cur.Parent {
		chain = append(chain, cur)
	}
	for _, a := range chain { // deepest first
		if trunkSafe(a, inc) {
			return a
		}
	}
	if len(chain) > 0 {
		return chain[len(chain)-1]
	}
	return n
}

// orderEstimate handles Q⃗ = q1[/q2/folls::q3] (and pres::): the
// single sibling-only order edge of the query tree.
func (e *Estimator) orderEstimate(m *joinMemo, tree *xpath.Tree, edge xpath.OrderEdge) (float64, error) {
	target := tree.Target
	inc := fullInclude(tree)

	switch {
	case target == edge.Before || target == edge.After:
		// Equation (3).
		e.tracef("order query, target %s is a sibling node: Equation (3)", target.Tag)
		return e.siblingEstimate(m, tree, inc, edge, target)
	case strictDescendantOf(target, edge.Before):
		// Equation (4) through the q2-side sibling.
		e.tracef("order query, target %s below sibling node %s: Equation (4)", target.Tag, edge.Before.Tag)
		return e.deepBranchEstimate(m, tree, inc, edge, edge.Before, target)
	case strictDescendantOf(target, edge.After):
		e.tracef("order query, target %s below sibling node %s: Equation (4)", target.Tag, edge.After.Tag)
		return e.deepBranchEstimate(m, tree, inc, edge, edge.After, target)
	default:
		// Equation (5): target in the trunk part.
		e.tracef("order query, target %s in the trunk part: Equation (5)", target.Tag)
		sq, err := e.noOrder(m, tree, inc, target)
		if err != nil {
			return 0, err
		}
		sBefore, err := e.siblingEstimate(m, tree, inc, edge, edge.Before)
		if err != nil {
			return 0, err
		}
		sAfter, err := e.siblingEstimate(m, tree, inc, edge, edge.After)
		if err != nil {
			return 0, err
		}
		v := min3(sq, sBefore, sAfter)
		e.tracef("Eq 5: min(S_Q(%s)=%.4g, S_Q⃗(%s)=%.4g, S_Q⃗(%s)=%.4g) = %.4g",
			target.Tag, sq, edge.Before.Tag, sBefore, edge.After.Tag, sAfter, v)
		return v, nil
	}
}

// siblingEstimate computes S_Q⃗(sib) for a sibling node of the order
// edge via Equation (3):
//
//	S_Q⃗(sib) ≈ S_Q⃗′(sib) · S_Q(sib) / S_Q′(sib)
//
// where Q⃗′ truncates the opposite branch to its first node, S_Q⃗′(sib)
// is read exactly from the path-order summary over sib's surviving
// path ids after the join on Q′, and the two no-order selectivities
// come from the Section 4 estimator.
func (e *Estimator) siblingEstimate(m *joinMemo, tree *xpath.Tree, inc includeSet, edge xpath.OrderEdge, sib *xpath.TreeNode) (float64, error) {
	other := edge.Before
	region := stats.Before // sib occurs before other
	if sib == edge.Before {
		other = edge.After
	} else {
		other = edge.Before
		region = stats.After // sib occurs after other
	}

	incSimpl := withoutSubtree(inc, other)
	joinedSimpl, err := m.join(e.kern, tree, incSimpl)
	if err != nil {
		return 0, err
	}
	sOrder := 0.0
	for _, pf := range joinedSimpl.pf(sib) {
		sOrder += e.src.OrderCount(sib.Tag, region, pf.Pid, other.Tag)
	}
	if sOrder == 0 {
		return 0, nil
	}

	sqSimpl, err := e.noOrder(m, tree, incSimpl, sib)
	if err != nil {
		return 0, err
	}
	if sqSimpl == 0 {
		return 0, nil
	}
	sq, err := e.noOrder(m, tree, inc, sib)
	if err != nil {
		return 0, err
	}
	v := sOrder * sq / sqSimpl
	e.tracef("Eq 3 for %s: S_Q⃗'(%s)=%.4g (path-order table) × S_Q(%s)=%.4g / S_Q'(%s)=%.4g = %.4g",
		sib.Tag, sib.Tag, sOrder, sib.Tag, sq, sib.Tag, sqSimpl, v)
	return v, nil
}

// deepBranchEstimate computes Equation (4) for a target strictly below
// the sibling node sib:
//
//	S_Q⃗(n) ≈ S_Q(n) · S_Q⃗′(sib) / S_Q′(sib)
func (e *Estimator) deepBranchEstimate(m *joinMemo, tree *xpath.Tree, inc includeSet, edge xpath.OrderEdge, sib, target *xpath.TreeNode) (float64, error) {
	sq, err := e.noOrder(m, tree, inc, target)
	if err != nil {
		return 0, err
	}
	if sq == 0 {
		return 0, nil
	}
	sSib, err := e.siblingEstimate(m, tree, inc, edge, sib)
	if err != nil {
		return 0, err
	}
	sqSib, err := e.noOrder(m, tree, inc, sib)
	if err != nil {
		return 0, err
	}
	if sqSib == 0 {
		return 0, nil
	}
	// S_Q⃗(sib)/S_Q(sib) equals the paper's S_Q⃗′/S_Q′ ratio by
	// construction of siblingEstimate.
	v := sq * sSib / sqSib
	e.tracef("Eq 4: S_Q(%s)=%.4g × S_Q⃗(%s)=%.4g / S_Q(%s)=%.4g = %.4g",
		target.Tag, sq, sib.Tag, sSib, sib.Tag, sqSib, v)
	return v, nil
}

// convertAndEstimate rewrites a preceding/following query into
// sibling-axis queries following Example 5.3: the surviving path ids
// of the order node are decomposed through the encoding table into
// anchor segments below the context node, each yielding one
// following-sibling (preceding-sibling) query. The rewritten
// selectivities are summed; for targets outside the order node's
// branch the sum is capped by the no-order estimate (imposing order
// cannot increase selectivity).
func (e *Estimator) convertAndEstimate(memo *joinMemo, tree *xpath.Tree, edge xpath.OrderEdge) (float64, error) {
	// The rewritten node is the endpoint whose original step used the
	// following/preceding axis: the After endpoint for following, the
	// Before endpoint for preceding.
	var m *xpath.TreeNode
	switch {
	case edge.After.Step.Axis == xpath.Following:
		m = edge.After
	case edge.Before.Step.Axis == xpath.Preceding:
		m = edge.Before
	default:
		return 0, fmt.Errorf("core: cannot locate the preceding/following step: %w", guard.ErrInternal)
	}
	if edge.Parent.IsVRoot() {
		return 0, fmt.Errorf("core: preceding/following cannot be anchored at the document root: %w", guard.ErrMalformedQuery)
	}

	joined, err := memo.join(e.kern, tree, nil)
	if err != nil {
		return 0, err
	}
	// Deduplicate segments by key, but keep first-seen order: map
	// iteration order would randomize the float summation below across
	// runs, and estimates must be bit-deterministic (the differential
	// harness compares estimator paths with Float64bits).
	segs := make(map[string]bool)
	var segList [][]string
	for _, pf := range joined.pf(m) {
		for _, seg := range e.lab.AnchorSegment(edge.Parent.Tag, m.Tag, pf.Pid) {
			if k := segKey(seg); !segs[k] {
				segs[k] = true
				segList = append(segList, seg)
			}
		}
	}
	if len(segList) == 0 {
		return 0, nil
	}

	sum := 0.0
	for _, seg := range segList {
		rw := rewriteOrderStep(tree.Path, m.Step, seg)
		e.tracef("Example 5.3 rewrite through segment %v: %s", seg, rw)
		est, err := e.Estimate(rw)
		if err != nil {
			return 0, err
		}
		sum += est
	}

	targetInBranch := tree.Target == m || strictDescendantOf(tree.Target, m)
	if !targetInBranch {
		cap, err := e.noOrder(memo, tree, fullInclude(tree), tree.Target)
		if err != nil {
			return 0, err
		}
		if cap < sum {
			return cap, nil
		}
	}
	return sum, nil
}

func segKey(seg []string) string {
	k := ""
	for _, s := range seg {
		k += s + "/"
	}
	return k
}

// rewriteOrderStep clones p, replacing the step `orig` (which uses the
// following/preceding axis) by a chain: a following-sibling
// (preceding-sibling) step on the segment's first tag, then child
// steps down to the segment's last tag — which is orig's tag and
// inherits its predicates and target mark.
func rewriteOrderStep(p *xpath.Path, orig *xpath.Step, seg []string) *xpath.Path {
	out := &xpath.Path{}
	for _, s := range p.Steps {
		out.Steps = append(out.Steps, rewriteStep(s, orig, seg)...)
	}
	return out
}

func rewriteStep(s *xpath.Step, orig *xpath.Step, seg []string) []*xpath.Step {
	if s == orig {
		axis := xpath.FollowingSibling
		if s.Axis == xpath.Preceding {
			axis = xpath.PrecedingSibling
		}
		steps := make([]*xpath.Step, len(seg))
		for i, tag := range seg {
			a := xpath.Child
			if i == 0 {
				a = axis
			}
			steps[i] = &xpath.Step{Axis: a, Tag: tag}
		}
		last := steps[len(steps)-1]
		last.Target = s.Target
		for _, pred := range s.Preds {
			last.Preds = append(last.Preds, clonePathRewriting(pred, orig, seg))
		}
		return steps
	}
	ns := &xpath.Step{Axis: s.Axis, Tag: s.Tag, Target: s.Target}
	for _, pred := range s.Preds {
		ns.Preds = append(ns.Preds, clonePathRewriting(pred, orig, seg))
	}
	return []*xpath.Step{ns}
}

func clonePathRewriting(p *xpath.Path, orig *xpath.Step, seg []string) *xpath.Path {
	out := &xpath.Path{}
	for _, s := range p.Steps {
		out.Steps = append(out.Steps, rewriteStep(s, orig, seg)...)
	}
	return out
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
