package core

import (
	"fmt"

	"xpathest/internal/guard"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xpath"
)

// includeSet selects the query-tree nodes participating in a (sub-)
// query. The estimation formulas of Sections 4–5 repeatedly join
// reduced queries (the chain query Q′ of Equation (2), the simplified
// query Q⃗′ of Equation (3)); each is just the original tree joined
// over a subset of its nodes.
type includeSet map[*xpath.TreeNode]bool

// fullInclude selects every node.
func fullInclude(tree *xpath.Tree) includeSet {
	inc := make(includeSet, len(tree.Nodes))
	for _, n := range tree.Nodes {
		inc[n] = true
	}
	return inc
}

// withoutSubtree copies inc minus the strict descendants of n.
func withoutSubtree(inc includeSet, n *xpath.TreeNode) includeSet {
	out := make(includeSet, len(inc))
	for k, v := range inc {
		if v && !strictDescendantOf(k, n) {
			out[k] = true
		}
	}
	return out
}

// chainPlusSubtree selects the root chain of n plus n's whole query
// subtree (intersected with inc) — the Q′ = q1/q2 of Equation (2).
func chainPlusSubtree(inc includeSet, n *xpath.TreeNode) includeSet {
	out := make(includeSet)
	for cur := n; cur != nil && !cur.IsVRoot(); cur = cur.Parent {
		out[cur] = true
	}
	var rec func(m *xpath.TreeNode)
	rec = func(m *xpath.TreeNode) {
		for _, c := range m.Children {
			if inc[c] {
				out[c] = true
				rec(c)
			}
		}
	}
	rec(n)
	return out
}

func strictDescendantOf(n, anc *xpath.TreeNode) bool {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// nodeState is one query node's surviving entries during the join:
// the (pid, frequency) list plus, in parallel, each entry's global
// index in the kernel's columnar snapshot — the row offsets the
// word-parallel containment sweeps read. Both slices are pruned in
// lockstep, in place — filtering preserves order, so the final list
// is always a subsequence of the snapshot's canonical entry order.
type nodeState struct {
	pf  []stats.PidFreq
	ids []int32
}

// jnode pairs a query node with its join state (and its snapshot span
// and dense tag id, -1 when the tag has no entries). One slice of
// these replaces the old parallel slices plus node-pointer index map:
// query trees are a handful of nodes, so identity lookups are a linear
// scan, and the whole bookkeeping is one allocation — with the tag
// resolved once per node instead of once per use.
type jnode struct {
	n   *xpath.TreeNode
	tid int32
	sp  span
	// lw locates the node's liveness bitmap in the join's liveness
	// slab (see liveness), kept only when the snapshot has a pivot
	// index, whose posting runs list entries dead or alive. An offset
	// rather than a slice keeps jnode at its one-word-row size.
	lw int32
	st nodeState
}

// liveness returns the node's bitmap in slab: bit g-sp.base is set
// while entry g survives.
func (j *jnode) liveness(slab []uint64) []uint64 {
	n := (j.sp.n + 63) / 64
	return slab[j.lw : j.lw+n : j.lw+n]
}

// joinResult holds the surviving lists of one path join, indexed by
// query node.
type joinResult struct {
	nodes []jnode
}

// state returns n's surviving entries (zero state when n was not
// included — matching the old map's missing-key behavior).
func (r joinResult) state(n *xpath.TreeNode) nodeState {
	for i := range r.nodes {
		if r.nodes[i].n == n {
			return r.nodes[i].st
		}
	}
	return nodeState{}
}

// pf returns n's surviving (pid, frequency) list.
func (r joinResult) pf(n *xpath.TreeNode) []stats.PidFreq {
	return r.state(n).pf
}

// pathJoin runs the path id join of Section 4 over the included nodes:
// every node starts with its tag's full (pid, frequency) list, and
// adjacent (parent, child) pairs prune entries that cannot satisfy
// the containment relationship until a fixpoint is reached (Example
// 4.1's cascading removals require iteration).
//
// The fixpoint is computed with a worklist: processing an edge makes
// it arc-consistent in both directions, and only edges incident to a
// node whose list shrank are revisited. Pruning is a monotone
// intersection, so the greatest fixpoint is unique and independent of
// processing order — the surviving lists (and hence all downstream
// float sums, taken in list order) are identical to those of a full
// round-robin sweep.
//
// EdgeCompatible factors as containment(ancPid, descPid) &&
// PathWitness(descPid) with the witness independent of the ancestor
// pid, so each edge's child list is pruned by the memoized witness
// bitmap once, up front; both worklist directions then reduce to pure
// word containment over snapshot arena rows — sequential reads over
// contiguous memory with no map lookups, memo probes, or atomics.
// With multi-word rows both directions go through the snapshot's pivot
// index: a child entry's containers all hold its pivot bit, so each
// sweep tests a child only against the parent's surviving entries
// holding that bit, or against the whole surviving list when that is
// shorter.
func pathJoin(k *kernel, tree *xpath.Tree, inc includeSet) (joinResult, error) {
	snap := k.snapshot()

	// Resolve every included node's tag span once and size one backing
	// slab for all (pid, frequency) lists — the lists only shrink after
	// this point, so disjoint sub-slices of a single allocation never
	// interfere. A nil inc means every node (the common whole-query
	// join, spared the include-map allocation).
	// Iterate tree.Nodes filtered by inc rather than the inc map itself:
	// the dense node ids (and with them the worklist processing order)
	// are then a deterministic function of the query, not of map
	// iteration order.
	js := make([]jnode, 0, len(tree.Nodes))
	total := 0
	for _, n := range tree.Nodes {
		if inc != nil && !inc[n] {
			continue
		}
		if n.Tag == "*" {
			return joinResult{}, fmt.Errorf("core: wildcard node tests are not estimable: %w", guard.ErrMalformedQuery)
		}
		tid := int32(-1)
		var sp span
		if id, ok := snap.tagID[n.Tag]; ok {
			tid = id
			sp = snap.spans[id]
		}
		js = append(js, jnode{n: n, tid: tid, sp: sp})
		total += int(sp.n)
	}
	// An absolute first step — child axis off the virtual root — only
	// matches the document root. Every encoding-table path starts with
	// the root tag, so a mismatched tag has zero matches; a matching
	// tag keeps its whole list (in a non-recursive document the root
	// tag cannot reappear deeper without repeating on its own
	// root-to-leaf path, so the list is exactly the root).
	rootTag := k.rootTag
	pfSlab := make([]stats.PidFreq, 0, total)
	idSlab := make([]int32, 0, total)
	for ni := range js {
		n := js[ni].n
		if (n.Parent == nil || n.Parent.IsVRoot()) &&
			n.Axis != xpath.Descendant && n.Tag != rootTag {
			continue
		}
		start := len(pfSlab)
		sp := js[ni].sp
		for g := sp.base; g < sp.base+sp.n; g++ {
			e := stats.PidFreq{Pid: snap.cols.Pids[g], Freq: snap.cols.Freqs[g]}
			// Positional filters are exact corrections from the
			// path-order statistics: an element is first (last) among
			// its same-tag siblings iff it has no preceding (following)
			// same-tag sibling, which is precisely what the element+
			// (+element) region counts.
			if n.Step != nil {
				switch n.Step.Pos {
				case xpath.PosFirst:
					e.Freq -= k.src.OrderCount(n.Tag, stats.After, e.Pid, n.Tag)
				case xpath.PosLast:
					e.Freq -= k.src.OrderCount(n.Tag, stats.Before, e.Pid, n.Tag)
				}
			}
			if e.Freq > 0 {
				pfSlab = append(pfSlab, e)
				idSlab = append(idSlab, g)
			}
		}
		end := len(pfSlab)
		js[ni].st = nodeState{pf: pfSlab[start:end:end], ids: idSlab[start:end:end]}
	}

	// Collect the (parent, child) pairs among included nodes and index
	// edges by incident node (CSR layout over node indices). While
	// collecting, prune each child list by its edge's witness bitmap:
	// a child entry whose pid carries no axis-compatible (parent tag,
	// child tag) occurrence on any of its paths can never survive, and
	// dropping it here makes every later sweep containment-only.
	type edge struct {
		p, c int32
	}
	edges := make([]edge, 0, len(js))
	for ni := range js {
		n := js[ni].n
		p := n.Parent
		if p == nil || p.IsVRoot() {
			continue
		}
		pi := int32(-1)
		for i := range js {
			if js[i].n == p {
				pi = int32(i)
				break
			}
		}
		if pi < 0 {
			continue
		}
		edges = append(edges, edge{p: pi, c: int32(ni)})
		cs := &js[ni].st
		if js[pi].tid < 0 || js[ni].tid < 0 || len(cs.pf) == 0 {
			// A tag with no entries empties its own (and, through the
			// fixpoint, its neighbors') lists without a witness.
			continue
		}
		wit := k.witness(snap, js[pi].tid, js[ni].tid, treeAxis(n))
		cbase := js[ni].sp.base
		w := 0
		for j := range cs.pf {
			if bitAt(wit, cs.ids[j]-cbase) {
				cs.pf[w] = cs.pf[j]
				cs.ids[w] = cs.ids[j]
				w++
			}
		}
		cs.pf = cs.pf[:w]
		cs.ids = cs.ids[:w]
	}

	// Liveness bits for the indexed sweeps, every node's plus one
	// span-sized scratch bitmap (sup) for the parent side, in one slab.
	idx := snap.idx
	var live, sup []uint64
	if idx != nil {
		words, most := int32(0), int32(0)
		for i := range js {
			n := (js[i].sp.n + 63) / 64
			js[i].lw = words
			words += n
			most = max(most, n)
		}
		live = make([]uint64, words+most)
		sup = live[words:]
		for i := range js {
			l := js[i].liveness(live)
			for _, g := range js[i].st.ids {
				j := g - js[i].sp.base
				l[j>>6] |= 1 << uint(j&63)
			}
		}
	}

	// CSR incidence index plus worklist state, all carved from one int32
	// slab: off (n+1 prefix sums), incSlab (2E edge refs), pos (n fill
	// cursors), work (2E+1 initial queue capacity), inWork (E flags).
	// Every region is capacity-capped so a queue append past its region
	// reallocates instead of bleeding into the next.
	nn, ne := len(js), len(edges)
	slab := make([]int32, 2*nn+5*ne+2)
	off := slab[0 : nn+1 : nn+1]
	incSlab := slab[nn+1 : nn+1+2*ne : nn+1+2*ne]
	pos := slab[nn+1+2*ne : 2*nn+1+2*ne : 2*nn+1+2*ne]
	workBuf := slab[2*nn+1+2*ne : 2*nn+2+4*ne : 2*nn+2+4*ne]
	inWork := slab[2*nn+2+4*ne:]
	for _, e := range edges {
		off[e.p+1]++
		off[e.c+1]++
	}
	for i := 1; i <= nn; i++ {
		off[i] += off[i-1]
	}
	copy(pos, off[:nn])
	for ei, e := range edges {
		incSlab[pos[e.p]] = int32(ei)
		pos[e.p]++
		incSlab[pos[e.c]] = int32(ei)
		pos[e.c]++
	}

	work := workBuf[:ne]
	for i := range edges {
		work[i] = int32(i)
		inWork[i] = 1
	}
	// Re-enqueue policy: after processing an edge, the edge itself is
	// already consistent with a parent-side shrink (the child side was
	// pruned against the shrunken parent list), so a parent shrink
	// skips the current edge; a child-side shrink invalidates the
	// parent side, which was pruned against the pre-shrink child list —
	// so child shrinks re-enqueue every incident edge.
	for len(work) > 0 {
		ei := work[0]
		work = work[1:]
		inWork[ei] = 0
		e := &edges[ei]
		p, c := &js[e.p], &js[e.c]
		ps, cs := &p.st, &c.st

		// Prune the parent side against the child list (keep ancestors
		// whose arena row contains at least one surviving child row),
		// then the child side against the shrunken parent list. Witness
		// bits were folded into the child list up front, so containment
		// alone is the full verdict.
		pn, pw, cw := len(ps.pf), 0, 0
		if idx == nil {
			for i := range ps.pf {
				if snap.containsAny(ps.ids[i], cs.ids) {
					ps.pf[pw] = ps.pf[i]
					ps.ids[pw] = ps.ids[i]
					pw++
				}
			}
			ps.pf, ps.ids = ps.pf[:pw], ps.ids[:pw]
			for j := range cs.pf {
				if snap.anyContains(ps.ids, cs.ids[j]) {
					cs.pf[cw] = cs.pf[j]
					cs.ids[cw] = cs.ids[j]
					cw++
				}
			}
		} else {
			// One pass over the children does both: a parent survives
			// iff it contains a surviving child, so a child has a
			// container among the pruned parents iff it has one among
			// the unpruned. support marks each child's containers in
			// sup, which becomes the parent's liveness.
			pl, cl := p.liveness(live), c.liveness(live)
			sup := sup[:len(pl)]
			clear(sup)
			left := len(ps.ids)
			for j, d := range cs.ids {
				marked, found := snap.support(snap.candidates(p.tid, d, ps.ids), pl, sup, p.sp.base, d, left)
				left -= marked
				if found {
					cs.pf[cw] = cs.pf[j]
					cs.ids[cw] = d
					cw++
				} else {
					i := d - c.sp.base
					cl[i>>6] &^= 1 << uint(i&63)
				}
			}
			copy(pl, sup)
			for i, g := range ps.ids {
				if bitAt(sup, g-p.sp.base) {
					ps.pf[pw] = ps.pf[i]
					ps.ids[pw] = g
					pw++
				}
			}
			ps.pf, ps.ids = ps.pf[:pw], ps.ids[:pw]
		}

		if pw != pn {
			for _, e2 := range incSlab[off[e.p]:off[e.p+1]] {
				if e2 != ei && inWork[e2] == 0 {
					inWork[e2] = 1
					work = append(work, e2)
				}
			}
		}
		if cw != len(cs.pf) {
			cs.pf, cs.ids = cs.pf[:cw], cs.ids[:cw]
			for _, e2 := range incSlab[off[e.c]:off[e.c+1]] {
				if inWork[e2] == 0 {
					inWork[e2] = 1
					work = append(work, e2)
				}
			}
		}
	}

	return joinResult{nodes: js}, nil
}

// treeAxis maps a query-tree node's axis to the pathenc axis.
func treeAxis(n *xpath.TreeNode) pathenc.Axis {
	if n.Axis == xpath.Descendant {
		return pathenc.Descendant
	}
	return pathenc.Child
}

// sumFreq is the f_Q(n) of the paper: the summed frequency of the
// surviving path ids.
func sumFreq(entries []stats.PidFreq) float64 {
	s := 0.0
	for _, e := range entries {
		s += e.Freq
	}
	return s
}
