// Package stats collects the two statistics of Section 3 of the paper
// from a labeled document:
//
//   - the PathId-Frequency table (Figure 2(a)): for every distinct
//     element tag, the distinct path ids it occurs with and their
//     frequencies;
//   - one Path-Order table per tag (Figure 2(b)): a grid over
//     (path id of the tag, sibling tag) with two regions — "+element"
//     counts elements of the tag occurring *before* a sibling with the
//     other tag, "element+" counts those occurring *after* one.
//
// These exact tables are what the p-histogram and o-histogram of
// Section 6 summarize, and what the estimator of Sections 4–5 reads
// (either directly, for variance 0, or through the histograms).
//
// Every build runs one handler, Collector, which labels each element
// and adds it to both tables as it closes, so a build reads its input
// once: the XML driver (xmltree.Scan) feeds it for a stream and, beside
// the tree builder, for a parsed document; Build replays a built tree
// into it. Its writes — the frequency add (FreqTable.AddFreq), the
// order-cell write (OrderTables.AddOrder) and the sibling-group sweep
// (OrderTables.ApplyGroup) — are also called by CollectFreq and
// CollectOrder, the tree-walk reference over a labeled tree, and, with
// sign ±1, by the incremental maintenance of package delta.
package stats

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"xpathest/internal/bitset"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// PidFreq is one (path id, frequency) entry of the PathId-Frequency
// table. Frequency is a float64 because histogram lookups return
// bucket averages; exact collection always stores whole numbers.
type PidFreq struct {
	Pid  *bitset.Bitset
	Freq float64
}

// FreqTable is the PathId-Frequency table of the whole document.
type FreqTable struct {
	byTag map[string][]PidFreq
	pos   map[tagPid]int // index of each entry in its tag's list
}

// tagPid keys one frequency entry by tag and interned pid instance.
type tagPid struct {
	tag string
	pid *bitset.Bitset
}

func newFreqTable() *FreqTable {
	return &FreqTable{byTag: make(map[string][]PidFreq), pos: make(map[tagPid]int)}
}

// Tags returns the element tags present, sorted.
func (t *FreqTable) Tags() []string {
	out := make([]string, 0, len(t.byTag))
	for tag := range t.byTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// Entries returns the (pid, frequency) list of a tag in the order its
// pids were first added — first close for a build, first occurrence in
// document order for CollectFreq — or nil for an unknown tag. Nothing
// downstream reads that order. The slice must not be modified.
func (t *FreqTable) Entries(tag string) []PidFreq { return t.byTag[tag] }

// NumEntries returns the total number of (tag, pid) pairs.
func (t *FreqTable) NumEntries() int {
	n := 0
	for _, e := range t.byTag {
		n += len(e)
	}
	return n
}

// CollectFreq builds the PathId-Frequency table in one document walk,
// adding every element in preorder, so each tag's entries follow first
// occurrence in document order.
func CollectFreq(doc *xmltree.Document, l *pathenc.Labeling) *FreqTable {
	t := newFreqTable()
	doc.Walk(func(n *xmltree.Node) bool {
		t.AddFreq(n.Tag, l.PidOf(n), 1)
		return true
	})
	return t
}

// SizeBytes estimates the storage of the exact table: one pid
// reference plus a 4-byte count per entry, plus a tag directory.
func (t *FreqTable) SizeBytes(pidRefBytes int) int {
	n := 0
	for tag, e := range t.byTag {
		n += len(tag) + 2 // tag directory entry
		n += len(e) * (pidRefBytes + 4)
	}
	return n
}

// Region selects one of the two halves of a path-order table.
type Region int

const (
	// Before is the "+element" region: the tag occurs before a sibling
	// with the other tag.
	Before Region = iota
	// After is the "element+" region: the tag occurs after one.
	After
)

func (r Region) String() string {
	if r == Before {
		return "+element"
	}
	return "element+"
}

// OrderTable is the path-order table of one element tag X. A cell
// g(pid, Y) in region Before counts the X elements labeled pid that
// have at least one following sibling tagged Y; in region After, at
// least one preceding sibling tagged Y. An X element occurring both
// before and after Y elements is counted in both regions (Section 3).
//
// Cells are keyed by the interned pid instance: labeling makes equal
// bit sequences share one instance, so every pid collected here, and
// every pid the estimator probes with, is its canonical instance.
type OrderTable struct {
	Tag   string
	cells [2]map[*bitset.Bitset]map[string]float64 // region -> pid -> sibling tag -> count
}

func newOrderTable(tag string) *OrderTable {
	return &OrderTable{
		Tag:   tag,
		cells: [2]map[*bitset.Bitset]map[string]float64{make(map[*bitset.Bitset]map[string]float64), make(map[*bitset.Bitset]map[string]float64)},
	}
}

// Get returns g(pid, sibTag) in the given region; 0 for empty cells
// and for a pid that is not the labeling's canonical instance.
func (o *OrderTable) Get(region Region, pid *bitset.Bitset, sibTag string) float64 {
	return o.cells[region][pid][sibTag]
}

// Cell is one non-empty cell of a path-order table, in export form.
type Cell struct {
	Region Region
	Pid    *bitset.Bitset
	SibTag string
	Count  float64
}

// Cells returns all non-empty cells in a deterministic order (region,
// then pid bit-sequence, then sibling tag).
func (o *OrderTable) Cells() []Cell {
	var out []Cell
	for _, region := range []Region{Before, After} {
		for pid, m := range o.cells[region] {
			for tag, c := range m {
				out = append(out, Cell{Region: region, Pid: pid, SibTag: tag, Count: c})
			}
		}
	}
	slices.SortFunc(out, func(a, b Cell) int {
		return cmp.Or(cmp.Compare(a.Region, b.Region), bitset.Compare(a.Pid, b.Pid), strings.Compare(a.SibTag, b.SibTag))
	})
	return out
}

// NumCells returns the number of non-empty cells.
func (o *OrderTable) NumCells() int {
	n := 0
	for _, region := range []Region{Before, After} {
		for _, m := range o.cells[region] {
			n += len(m)
		}
	}
	return n
}

// Pids returns the distinct pids appearing in the table, sorted by bit
// sequence.
func (o *OrderTable) Pids() []*bitset.Bitset {
	out := make([]*bitset.Bitset, 0, len(o.cells[Before])+len(o.cells[After]))
	for p := range o.cells[Before] {
		out = append(out, p)
	}
	for p := range o.cells[After] {
		if o.cells[Before][p] == nil {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, bitset.Compare)
	return out
}

// SibTags returns the distinct sibling tags appearing in the table,
// sorted alphabetically (the row order of Algorithm 2).
func (o *OrderTable) SibTags() []string {
	set := map[string]bool{}
	for _, region := range []Region{Before, After} {
		for _, m := range o.cells[region] {
			for tag := range m {
				set[tag] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for tag := range set {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// OrderTables holds the path-order table of every tag.
type OrderTables struct {
	byTag map[string]*OrderTable
}

// Table returns the path-order table of a tag, or nil.
func (ts *OrderTables) Table(tag string) *OrderTable { return ts.byTag[tag] }

// Tags returns the tags that have at least one non-empty cell, sorted.
func (ts *OrderTables) Tags() []string {
	out := make([]string, 0, len(ts.byTag))
	for tag := range ts.byTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// NumCells returns the total number of non-empty cells across tables.
func (ts *OrderTables) NumCells() int {
	n := 0
	for _, t := range ts.byTag {
		n += t.NumCells()
	}
	return n
}

// SizeBytes estimates exact storage: per non-empty cell one pid
// reference, a 2-byte tag reference and a 4-byte count.
func (ts *OrderTables) SizeBytes(pidRefBytes int) int {
	return ts.NumCells() * (pidRefBytes + 2 + 4)
}

// CollectOrder builds every path-order table in one walk, sweeping
// each sibling group with ApplyGroup.
func CollectOrder(doc *xmltree.Document, l *pathenc.Labeling) *OrderTables {
	ts := &OrderTables{byTag: make(map[string]*OrderTable)}
	var group []GroupMember
	doc.Walk(func(parent *xmltree.Node) bool {
		group = AppendGroup(group[:0], parent.Children, l)
		ts.ApplyGroup(group, 1)
		return true
	})
	return ts
}

// Tables bundles a document's labeling with both exact statistics.
type Tables struct {
	Labeling *pathenc.Labeling
	Freq     *FreqTable
	Order    *OrderTables
}

// Collect labels the document (if l is nil) and gathers both tables.
// A nil l is a convenience for in-process documents; it labels via
// pathenc.MustBuild. Input-facing callers label explicitly with
// pathenc.Build and pass the result in.
func Collect(doc *xmltree.Document, l *pathenc.Labeling) *Tables {
	if l == nil {
		l = pathenc.MustBuild(doc)
	}
	return &Tables{
		Labeling: l,
		Freq:     CollectFreq(doc, l),
		Order:    CollectOrder(doc, l),
	}
}
