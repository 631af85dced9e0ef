package delta

import (
	"errors"
	"fmt"
	"sort"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
)

// State bundles the per-document structures Apply maintains. Doc and
// Tables are mutated in place; Lab, PS and OS are replaced (the
// pre-edit instances stay intact for summaries already built over
// them).
type State struct {
	Doc    *xmltree.Document
	Lab    *pathenc.Labeling
	Tables *stats.Tables
	PS     *histogram.PSet
	OS     *histogram.OSet
}

// Inject selects a deliberately broken maintenance variant for the
// edit-script oracle's self-tests (internal/difftest): each value
// suppresses one real maintenance duty on the fast route, so the
// oracle can prove it detects — and shrinks — exactly that class of
// bug. Production callers pass InjectNone.
type Inject uint8

const (
	// InjectNone applies edits correctly.
	InjectNone Inject = iota

	// InjectSkipRebucket skips the p-histogram re-bucketing of
	// frequency-dirty tags, serving stale buckets — the "missed
	// re-bucket" maintenance bug.
	InjectSkipRebucket

	// InjectStaleOrderCell skips moving the order-table cells of
	// ancestors whose pid changed, leaving counts filed under the old
	// pid — the "stale order-table cell" maintenance bug.
	InjectStaleOrderCell
)

// Options control one Apply call. The variance thresholds must match
// the summary being maintained (they parameterize the re-bucketing of
// dirty tags).
type Options struct {
	PVariance float64
	OVariance float64
	Inject    Inject
}

// Result reports how a script was applied.
type Result struct {
	// Inverse undoes the script: per-op inverses in reverse order.
	// Valid for the ops that applied (all of them unless Apply
	// returned an error).
	Inverse Script

	// FastOps and RebuildOps count how each op was routed.
	FastOps    int
	RebuildOps int

	// Applied is the number of ops fully applied; it trails len(Ops)
	// only when Apply returns an error.
	Applied int
}

// Apply runs the script against the state: each op edits the tree,
// maintains labeling and statistics (incrementally when the alignment
// guard allows, by full rebuild otherwise), and finally the p-/o-
// histogram sets are reassembled with only the dirty tags re-bucketed.
// On error the tree, labeling and tables are consistent with the
// applied prefix (Result.Applied), but PS/OS are not reassembled.
func Apply(st *State, sc Script, opt Options) (Result, error) {
	var res Result
	if err := sc.Validate(); err != nil {
		return res, err
	}
	a := applier{st: st, opt: opt, pDirty: map[string]bool{}, oDirty: map[string]bool{}}
	var inverses []Op
	for i, op := range sc.Ops {
		inv, fast, err := a.applyOp(op)
		if err != nil {
			res.Inverse = sc.Inverse(inverses)
			return res, fmt.Errorf("delta: op %d (%s at %v): %w", i, op.Kind, op.Loc, err)
		}
		inverses = append(inverses, inv)
		if fast {
			res.FastOps++
		} else {
			res.RebuildOps++
		}
		res.Applied++
	}
	res.Inverse = sc.Inverse(inverses)
	a.assemble()
	return res, nil
}

// applier carries the dirty-tag accumulation of one Apply call.
type applier struct {
	st  *State
	opt Options

	// pDirty tags need their p-histogram re-bucketed (frequency
	// entries changed); oDirty tags their o-histogram (order cells or
	// column order changed). allDirty is set once any op takes the
	// rebuild route, after which everything is rebuilt anyway.
	pDirty   map[string]bool
	oDirty   map[string]bool
	allDirty bool
}

func (a *applier) applyOp(op Op) (Op, bool, error) {
	if op.Kind == Insert {
		return a.applyInsert(op)
	}
	return a.applyDelete(op)
}

func (a *applier) applyInsert(op Op) (Op, bool, error) {
	st := a.st
	parent, err := st.Doc.NodeAt(op.Loc)
	if err != nil {
		return Op{}, false, err
	}
	if op.Index > len(parent.Children) {
		return Op{}, false, fmt.Errorf("insert index %d out of range [0,%d]: %w", op.Index, len(parent.Children), guard.ErrInvalidArgument)
	}
	sub := xmltree.CloneSubtree(op.Subtree)
	oldGroup := stats.AppendGroup(nil, parent.Children, st.Lab)
	if err := st.Doc.Attach(parent, op.Index, sub); err != nil {
		return Op{}, false, err
	}
	inv := Op{Kind: Delete, Loc: append(append([]int(nil), op.Loc...), op.Index)}

	fast, err := a.maintain(parent, sub, nil, nil, oldGroup)
	if err != nil {
		return Op{}, false, err
	}
	return inv, fast, nil
}

func (a *applier) applyDelete(op Op) (Op, bool, error) {
	st := a.st
	victim, err := st.Doc.NodeAt(op.Loc)
	if err != nil {
		return Op{}, false, err
	}
	if victim.Parent == nil {
		return Op{}, false, fmt.Errorf("cannot delete the root: %w", guard.ErrInvalidArgument)
	}
	parent := victim.Parent
	inv := Op{
		Kind:    Insert,
		Loc:     append([]int(nil), op.Loc[:len(op.Loc)-1]...),
		Index:   op.Loc[len(op.Loc)-1],
		Subtree: xmltree.CloneSubtree(victim),
	}
	// Snapshot the group, the removed occurrences and the removed
	// subtree's interior sibling groups while the pre-edit Ord index is
	// still valid.
	oldGroup := stats.AppendGroup(nil, parent.Children, st.Lab)
	var removed []stats.GroupMember
	var removedGroups [][]stats.GroupMember
	victim.Walk(func(n *xmltree.Node) bool {
		removed = append(removed, stats.GroupMember{Tag: n.Tag, Pid: st.Lab.PidOf(n)})
		if len(n.Children) >= 2 {
			removedGroups = append(removedGroups, stats.AppendGroup(nil, n.Children, st.Lab))
		}
		return true
	})
	if err := st.Doc.Detach(victim); err != nil {
		return Op{}, false, err
	}

	fast, err := a.maintain(parent, nil, removed, removedGroups, oldGroup)
	if err != nil {
		return Op{}, false, err
	}
	return inv, fast, nil
}

// maintain updates labeling and statistics after the tree splice at
// parent: inserted is the freshly attached subtree (nil for deletes),
// removed the detached occurrences and removedGroups their interior
// sibling groups (nil for inserts), oldGroup the pre-edit composition
// of parent's sibling group. It tries the fast route first and falls
// back to a full rebuild when the encoding table cannot cover the edit
// or the alignment guard rejects it.
func (a *applier) maintain(parent, inserted *xmltree.Node, removed []stats.GroupMember, removedGroups [][]stats.GroupMember, oldGroup []stats.GroupMember) (bool, error) {
	st := a.st

	nl := st.Lab.CloneForEdit()
	overrides := map[*xmltree.Node]*bitset.Bitset{}
	fastOK := true
	if inserted != nil {
		if err := nl.RelabelSubtree(inserted, overrides); err != nil {
			if !errors.Is(err, pathenc.ErrPathUnknown) {
				return false, err
			}
			fastOK = false
		}
	}
	var changes []pathenc.PidChange
	if fastOK {
		var err error
		changes, err = nl.RecomputeAncestors(parent, overrides)
		if err != nil {
			if !errors.Is(err, pathenc.ErrPathUnknown) {
				return false, err
			}
			fastOK = false
		}
	}
	if !fastOK {
		st.Doc.Renumber()
		if err := a.rebuild(); err != nil {
			return false, err
		}
		return false, nil
	}

	nl.Rebind(overrides)
	st.Doc.Renumber()

	// Frequency deltas: inserted occurrences +1, removed ones -1, and
	// each relabeled ancestor moves one occurrence between pids.
	if inserted != nil {
		inserted.Walk(func(n *xmltree.Node) bool {
			st.Tables.Freq.AddFreq(n.Tag, nl.PidOf(n), 1)
			a.pDirty[n.Tag] = true
			return true
		})
	}
	for _, m := range removed {
		st.Tables.Freq.AddFreq(m.Tag, m.Pid, -1)
		a.pDirty[m.Tag] = true
	}
	for _, ch := range changes {
		st.Tables.Freq.AddFreq(ch.Node.Tag, ch.Old, -1)
		st.Tables.Freq.AddFreq(ch.Node.Tag, ch.New, 1)
		a.pDirty[ch.Node.Tag] = true
	}

	// Order-table maintenance: the edit parent's sibling group is
	// retracted in its pre-edit composition and re-added in its
	// post-edit one; each relabeled ancestor keeps its position inside
	// an unchanged group, so its cells move from old pid to new.
	st.Tables.Order.ApplyGroup(oldGroup, -1)
	for _, m := range oldGroup {
		a.oDirty[m.Tag] = true
	}
	newGroup := stats.AppendGroup(nil, parent.Children, nl)
	st.Tables.Order.ApplyGroup(newGroup, 1)
	for _, m := range newGroup {
		a.oDirty[m.Tag] = true
	}
	// Sibling groups interior to the spliced subtree contribute cells
	// of their own: added for an insert, retracted for a delete.
	if inserted != nil {
		inserted.Walk(func(m *xmltree.Node) bool {
			if len(m.Children) >= 2 {
				g := stats.AppendGroup(nil, m.Children, nl)
				st.Tables.Order.ApplyGroup(g, 1)
				for _, gm := range g {
					a.oDirty[gm.Tag] = true
				}
			}
			return true
		})
	}
	for _, g := range removedGroups {
		st.Tables.Order.ApplyGroup(g, -1)
		for _, gm := range g {
			a.oDirty[gm.Tag] = true
		}
	}
	for _, ch := range changes {
		a.pDirty[ch.Node.Tag] = true
		a.oDirty[ch.Node.Tag] = true
		if a.opt.Inject == InjectStaleOrderCell {
			continue
		}
		moveAncestorCells(st.Tables.Order, ch)
	}

	// Alignment guard: the maintained structures must match what a
	// from-scratch build of the edited document would produce, or the
	// serialized summary would diverge. Any mismatch routes to rebuild.
	if !alignmentOK(st.Doc, nl, st.Tables.Freq) {
		if err := a.rebuild(); err != nil {
			return false, err
		}
		return false, nil
	}

	st.Lab = nl
	st.Tables.Labeling = nl
	return true, nil
}

// rebuild re-derives labeling and statistics from the edited tree —
// the route whose bit-identity to a fresh build is by construction.
// The document must already be renumbered.
func (a *applier) rebuild() error {
	st := a.st
	nl, err := pathenc.Build(st.Doc)
	if err != nil {
		return fmt.Errorf("rebuild labeling: %w", err)
	}
	st.Lab = nl
	st.Tables = stats.Collect(st.Doc, nl)
	a.allDirty = true
	return nil
}

// assemble rebuilds the histogram sets: everything after a rebuild op,
// only the dirty tags otherwise (clean tags keep their instances, so
// their serialized regions are byte-identical to the pre-edit
// summary's).
func (a *applier) assemble() {
	st := a.st
	n := st.Lab.NumDistinct()
	if a.allDirty {
		st.PS = histogram.BuildPSet(st.Tables.Freq, n, a.opt.PVariance)
		st.OS = histogram.BuildOSet(st.Tables.Order, st.PS, n, a.opt.OVariance)
		return
	}
	pRebuilt := map[string]*histogram.PHistogram{}
	if a.opt.Inject != InjectSkipRebucket {
		for _, tag := range sortedTags(a.pDirty) {
			if entries := st.Tables.Freq.Entries(tag); entries != nil {
				pRebuilt[tag] = histogram.BuildP(tag, entries, a.opt.PVariance)
			} else {
				pRebuilt[tag] = nil
			}
		}
	}
	st.PS = st.PS.WithUpdates(n, pRebuilt)

	// A frequency-dirty tag is order-dirty too: its o-histogram's
	// column order comes from its p-histogram.
	oRebuilt := map[string]*histogram.OHistogram{}
	for _, tag := range sortedTags(a.pDirty, a.oDirty) {
		if tbl := st.Tables.Order.Table(tag); tbl != nil {
			var order []*bitset.Bitset
			if ph := st.PS.Histogram(tag); ph != nil {
				order = ph.PidOrder()
			}
			oRebuilt[tag] = histogram.BuildO(tbl, order, a.opt.OVariance)
		} else {
			oRebuilt[tag] = nil
		}
	}
	st.OS = st.OS.WithUpdates(n, oRebuilt)
}

// moveAncestorCells rewrites one relabeled ancestor's order-table
// cells from its old pid to its new one. The node's sibling
// surroundings did not change (only children of the edit parent did),
// so the tag sets it is charged for are read off its current group.
func moveAncestorCells(ot *stats.OrderTables, ch pathenc.PidChange) {
	g := ch.Node.Parent
	if g == nil || len(g.Children) < 2 {
		return
	}
	idx := -1
	for i, s := range g.Children {
		if s == ch.Node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	beforeSet := map[string]bool{}
	afterSet := map[string]bool{}
	for i, s := range g.Children {
		if i < idx {
			afterSet[s.Tag] = true
		} else if i > idx {
			beforeSet[s.Tag] = true
		}
	}
	ot.MoveCells(ch.Node.Tag, ch.Old, ch.New, sortedTags(beforeSet), sortedTags(afterSet))
}

// sortedTags merges tag sets into one sorted slice (deterministic
// iteration for the per-tag rebuild loops).
func sortedTags(sets ...map[string]bool) []string {
	merged := map[string]bool{}
	for _, s := range sets {
		for t := range s {
			merged[t] = true
		}
	}
	out := make([]string, 0, len(merged))
	for t := range merged {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// alignmentOK is the fast route's guard: it walks the edited document
// once and checks that the maintained structures equal — not just
// semantically, but in serialization order — what pathenc.Build and
// stats.CollectFreq would produce:
//
//   - the distinct leaf paths, by first occurrence in document order,
//     carry encodings exactly 1..NumPaths (so the kept encoding table
//     is the one a rebuild would emit, and no table path vanished);
//   - the distinct pids, by first occurrence in bottom-up (post-order)
//     interning order, are exactly the instances of l.Distinct() in
//     order (so the maintained distinct-pid list matches a rebuild's,
//     with no orphan left behind by the edit);
//   - each tag's frequency entries, by first occurrence in document
//     order, sit at exactly their maintained list positions, and every
//     maintained (tag, entry) is reached.
func alignmentOK(doc *xmltree.Document, l *pathenc.Labeling, ft *stats.FreqTable) bool {
	if doc.Root == nil {
		return false
	}
	var (
		nextPath     = 1
		pathSeen     = make([]bool, l.Table.NumPaths()+1)
		distinct     = l.Distinct()
		nextDistinct = 0
		distinctSeen = make(map[*bitset.Bitset]bool, len(distinct))
		entryNext    = map[string]int{}
		entrySeen    = map[string]map[*bitset.Bitset]bool{}
		ok           = true
	)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if !ok {
			return
		}
		pid := l.PidOf(n)
		// Leaf-path first-occurrence order (preorder position).
		if n.IsLeaf() {
			enc := pid.FirstOne()
			if enc < 1 || enc > l.Table.NumPaths() {
				ok = false
				return
			}
			if !pathSeen[enc] {
				if enc != nextPath {
					ok = false
					return
				}
				pathSeen[enc] = true
				nextPath++
			}
		}
		// Per-tag frequency entry order (preorder position).
		seen := entrySeen[n.Tag]
		if seen == nil {
			seen = map[*bitset.Bitset]bool{}
			entrySeen[n.Tag] = seen
		}
		if !seen[pid] {
			entries := ft.Entries(n.Tag)
			i := entryNext[n.Tag]
			if i >= len(entries) || entries[i].Pid != pid {
				ok = false
				return
			}
			seen[pid] = true
			entryNext[n.Tag] = i + 1
		}
		for _, c := range n.Children {
			walk(c)
			if !ok {
				return
			}
		}
		// Distinct-pid first-occurrence order (post-order position,
		// matching the bottom-up interning of pathenc.Build).
		if !distinctSeen[pid] {
			if nextDistinct >= len(distinct) || distinct[nextDistinct] != pid {
				ok = false
				return
			}
			distinctSeen[pid] = true
			nextDistinct++
		}
	}
	walk(doc.Root)
	if !ok {
		return false
	}
	if nextPath != l.Table.NumPaths()+1 {
		return false
	}
	if nextDistinct != len(distinct) {
		return false
	}
	if len(entryNext) != ft.NumTags() {
		return false
	}
	for tag, n := range entryNext {
		if n != len(ft.Entries(tag)) {
			return false
		}
	}
	return true
}
