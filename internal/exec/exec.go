// Package exec evaluates XPath queries exactly, accelerated by the
// path-id labeling — the "efficient structural join" use the encoding
// scheme was originally designed for ([8], reviewed in Section 2 of
// the paper). The path join prunes, per query step, the set of path
// ids that can possibly participate in a match; the exact evaluator
// then only considers elements carrying a surviving pid. Results are
// always identical to plain evaluation (the join is sound over exact
// statistics); only the work changes.
package exec

import (
	"xpathest/internal/bitset"
	"xpathest/internal/core"
	"xpathest/internal/eval"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// Executor bundles the evaluator with the labeling-based pre-filter.
type Executor struct {
	lab *pathenc.Labeling
	ev  *eval.Evaluator
	est *core.Estimator
}

// New builds an executor over an evaluator of a document, its labeling
// and its exact statistics (a histogram source would make the
// pre-filter unsound).
func New(ev *eval.Evaluator, lab *pathenc.Labeling, tables *stats.Tables) *Executor {
	return &Executor{lab: lab, ev: ev, est: core.New(lab, core.TableSource{Tables: tables})}
}

// filterFor derives the candidate filter from the path join, or nil
// when the query cannot be joined (wildcards): evaluation then runs
// unfiltered, which is always correct. Surviving pids and document
// labels are both interned in the labeling, so membership is a pointer
// lookup with no allocation.
func (x *Executor) filterFor(p *xpath.Path) eval.CandidateFilter {
	byStep, err := x.est.SurvivingPids(p)
	if err != nil {
		return nil
	}
	allowed := make(map[*xpath.Step]map[*bitset.Bitset]bool, len(byStep))
	for step, pids := range byStep {
		set := make(map[*bitset.Bitset]bool, len(pids))
		for _, pid := range pids {
			set[pid] = true
		}
		allowed[step] = set
	}
	return func(q *xpath.TreeNode, n *xmltree.Node) bool {
		set := allowed[q.Step]
		if set == nil {
			return true
		}
		return set[x.lab.PidOf(n)]
	}
}

// Matches returns the exact target bindings, in document order.
func (x *Executor) Matches(p *xpath.Path) ([]*xmltree.Node, error) {
	return x.ev.MatchesFiltered(p, x.filterFor(p))
}

// Count returns the exact selectivity of the query's target node.
func (x *Executor) Count(p *xpath.Path) (int, error) {
	m, err := x.Matches(p)
	if err != nil {
		return 0, err
	}
	return len(m), nil
}
