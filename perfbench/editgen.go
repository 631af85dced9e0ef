package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"xpathest"
	"xpathest/internal/xmltree"
)

// maxEditSubtree bounds the subtrees an edit copies or removes, so one
// op moves the element count by a few elements at most.
const maxEditSubtree = 8

// genScripts derives k edit scripts of opsPer ops each. It applies
// every op to a scratch copy of the tree as it goes, so the child-index
// locations of later ops address the edited document exactly as the
// server will see it.
//
// difftest.GenEditScript cannot serve a repeating write cycle: it only
// deletes once a document passes 400 nodes, so on a real document it
// grows almost without bound, and its deletes and grafts can make a
// root-to-leaf path vanish or appear, so its share of rebuild ops
// varies with the document. This generator keeps the element count
// within a band around the starting size — it deletes above the band,
// inserts below it and flips a coin inside it — and chooses edits by
// route:
//
//   - an insert copies a small subtree in as its own next sibling, and
//     a delete removes a small subtree that has a structurally
//     identical sibling; neither adds or removes a root-to-leaf path,
//     so Summary.Apply maintains both in place (fast ops);
//   - every freshEvery-th op inserts never-seen tags: a new path, which
//     Apply must route through its rebuild path.
//
// So every cycle has the same number of rebuild ops on every document.
func genScripts(seed int64, tree *xmltree.Document, k, opsPer int) ([]xpathest.EditScript, error) {
	rng := rand.New(rand.NewSource(seed))
	scratch := &xmltree.Document{Root: xmltree.CloneSubtree(tree.Root)}
	base := xmltree.SubtreeSize(scratch.Root)
	band := base / 50
	if band < 8 {
		band = 8
	}
	scripts := make([]xpathest.EditScript, k)
	op, misses := 0, 0
	for s := range scripts {
		for len(scripts[s].Ops) < opsPer {
			small, twins := candidates(scratch.Root)
			size := xmltree.SubtreeSize(scratch.Root)
			var e xpathest.EditOp
			var err error
			switch {
			case op%freshEvery == freshEvery-1:
				e, err = insertFresh(rng, scratch, op)
			case size < base-band, size <= base+band && rng.Intn(2) == 0, len(twins) == 0:
				e, err = copySubtree(rng, scratch, small)
			default:
				e, err = deleteSubtree(rng, scratch, twins)
			}
			if err != nil {
				if misses++; misses > 100 {
					return nil, fmt.Errorf("edit generator: %w", err)
				}
				continue
			}
			scripts[s].Ops = append(scripts[s].Ops, e)
			op++
		}
	}
	return scripts, nil
}

// candidates lists, in post-order, the non-root nodes whose subtree
// has at most maxEditSubtree elements (small), and among them those
// with a sibling of identical tag structure (twins).
func candidates(root *xmltree.Node) (small, twins []*xmltree.Node) {
	sig := map[*xmltree.Node]string{}
	var walk func(n *xmltree.Node) int
	walk = func(n *xmltree.Node) int {
		size := 1
		for _, c := range n.Children {
			size += walk(c)
		}
		if size <= maxEditSubtree {
			s := "<" + n.Tag + ">"
			for _, c := range n.Children {
				s += sig[c]
			}
			sig[n] = s + "</>"
		}
		if n.Parent != nil && size <= maxEditSubtree {
			small = append(small, n)
		}
		seen := map[string]int{}
		for _, c := range n.Children {
			if s, ok := sig[c]; ok {
				seen[s]++
			}
		}
		for _, c := range n.Children {
			if s, ok := sig[c]; ok && seen[s] > 1 {
				twins = append(twins, c)
			}
		}
		return size
	}
	walk(root)
	return small, twins
}

// copySubtree inserts a copy of a small subtree as its own next
// sibling: no new root-to-leaf path, so Apply maintains it in place.
func copySubtree(rng *rand.Rand, scratch *xmltree.Document, nodes []*xmltree.Node) (xpathest.EditOp, error) {
	if len(nodes) == 0 {
		return xpathest.EditOp{}, fmt.Errorf("no subtree to copy")
	}
	v := nodes[rng.Intn(len(nodes))]
	var xml bytes.Buffer
	if err := (&xmltree.Document{Root: xmltree.CloneSubtree(v)}).WriteXML(&xml, false); err != nil {
		return xpathest.EditOp{}, err
	}
	idx := childIndex(v) + 1
	e := xpathest.EditOp{Insert: true, Loc: xmltree.LocOf(v.Parent), Index: idx, XML: xml.String()}
	return e, scratch.Attach(v.Parent, idx, xmltree.CloneSubtree(v))
}

// deleteSubtree removes one of the given subtrees.
func deleteSubtree(rng *rand.Rand, scratch *xmltree.Document, nodes []*xmltree.Node) (xpathest.EditOp, error) {
	if len(nodes) == 0 {
		return xpathest.EditOp{}, fmt.Errorf("no subtree to delete")
	}
	v := nodes[rng.Intn(len(nodes))]
	e := xpathest.EditOp{Loc: xmltree.LocOf(v)}
	return e, scratch.Detach(v)
}

// insertFresh inserts a one- or two-element subtree of tags the
// document has never had, under a random element.
func insertFresh(rng *rand.Rand, scratch *xmltree.Document, op int) (xpathest.EditOp, error) {
	var all []*xmltree.Node
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		all = append(all, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(scratch.Root)
	parent := all[rng.Intn(len(all))]
	tag := fmt.Sprintf("fresh%d", op)
	xml := "<" + tag + "/>"
	if rng.Intn(2) == 0 {
		xml = "<" + tag + "><" + tag + "x/></" + tag + ">"
	}
	sub, err := xmltree.ParseString(xml)
	if err != nil {
		return xpathest.EditOp{}, err
	}
	idx := rng.Intn(len(parent.Children) + 1)
	e := xpathest.EditOp{Insert: true, Loc: xmltree.LocOf(parent), Index: idx, XML: xml}
	return e, scratch.Attach(parent, idx, sub.Root)
}

func childIndex(n *xmltree.Node) int {
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// scriptPlan is one encoded /delta request and what the server must
// answer: the route counts and element count of the benchmark's own
// Summary.Apply of the same script.
type scriptPlan struct {
	wire          []byte
	ops           int
	fast, rebuild int
	elements      int
}

// writePlan is one dataset's write cycle: POST /summarize of the
// document, then writeScripts /delta scripts. Like the corpus, the
// cycle is fixed — its scripts do not depend on the run's seed — so a
// write figure moves with the program, not with the draw. For
// write-mix it also
// holds the reader's queries and their oracle estimates in every state
// of the cycle: states[s][i] is query i after s scripts, estimated on
// BuildSummary over the benchmark's edited copy of the document.
type writePlan struct {
	name     string // server name, "w-<dataset>"
	xml      []byte
	save     []byte // Summary.Save of BuildSummary over xml
	stored   int    // bytes of the summary the server stored for xml
	elements int
	scripts  []scriptPlan
	reader   []query
	states   [][]uint64
	log      stateLog
}

// The scripts are generated with scriptSeed, the reader's queries drawn
// with seed.
func newWritePlan(d *dataset, scriptSeed, seed int64, withReader bool) (*writePlan, error) {
	scripts, err := genScripts(scriptSeed, d.tree, writeScripts, opsPerScript)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	// The benchmark's own copy of the document, edited alongside the
	// server's.
	doc, err := xpathest.ParseDocument(bytes.NewReader(d.xml))
	if err != nil {
		return nil, err
	}
	cur := doc.BuildSummary(opts)
	wp := &writePlan{name: "w-" + d.name, xml: d.xml, save: d.save, elements: doc.NumElements()}
	wp.log.pending = -1
	if withReader {
		qs := randomQueries(d.lab, seed, 400)
		rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
		if wp.reader, err = stratified(qs, readerQueries); err != nil {
			return nil, fmt.Errorf("%s reader: %w", d.name, err)
		}
		if err := wp.addState(cur); err != nil {
			return nil, err
		}
	}
	for i, sc := range scripts {
		var wire bytes.Buffer
		if err := sc.Encode(&wire); err != nil {
			return nil, err
		}
		res, err := cur.Apply(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: script %d: %w", d.name, i, err)
		}
		cur = res.Summary
		wp.scripts = append(wp.scripts, scriptPlan{
			wire: wire.Bytes(), ops: len(sc.Ops),
			fast: res.FastOps, rebuild: res.RebuildOps, elements: doc.NumElements(),
		})
		if withReader {
			if err := wp.addState(doc.BuildSummary(opts)); err != nil {
				return nil, err
			}
		}
	}
	return wp, nil
}

func (wp *writePlan) addState(sum *xpathest.Summary) error {
	row := make([]uint64, len(wp.reader))
	for i, q := range wp.reader {
		v, err := expect(sum, q.text)
		if err != nil {
			return err
		}
		row[i] = v
	}
	wp.states = append(wp.states, row)
	return nil
}

// routeCounts sums the fast and rebuild ops of one cycle.
func (wp *writePlan) routeCounts() (fast, rebuild int) {
	for _, sp := range wp.scripts {
		fast += sp.fast
		rebuild += sp.rebuild
	}
	return fast, rebuild
}
