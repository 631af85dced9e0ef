package stats

import (
	"xpathest/internal/bitset"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// This file holds the writes of statistics collection: the frequency
// add, the order-cell write and the sibling-group sweep. CollectFreq and
// CollectOrder call them over a tree, the Collector as elements close,
// and the incremental maintenance path (package delta) with sign ±1
// after a subtree edit. All counts are whole numbers
// stored as float64, so ±1 adjustments reproduce a from-scratch
// collection bit for bit; structures are deleted the moment they
// empty, keeping the mutated tables indistinguishable from freshly
// collected ones. Every pid handed to these writes must be its
// canonical interned instance: entries and cells are found by pointer.

// AddFreq adjusts the (tag, pid) entry by d occurrences. An absent
// entry is appended at the end of the tag's list (first-close order
// when elements are added as they close); an entry whose count reaches
// zero is removed, and a tag with no entries left disappears.
func (t *FreqTable) AddFreq(tag string, pid *bitset.Bitset, d float64) {
	k := tagPid{tag, pid}
	entries := t.byTag[tag]
	i, ok := t.pos[k]
	if !ok {
		if d > 0 {
			t.pos[k] = len(entries)
			t.byTag[tag] = append(entries, PidFreq{Pid: pid, Freq: d})
		}
		return
	}
	if entries[i].Freq += d; entries[i].Freq != 0 {
		return
	}
	delete(t.pos, k)
	entries = append(entries[:i], entries[i+1:]...)
	for j := i; j < len(entries); j++ {
		t.pos[tagPid{tag, entries[j].Pid}] = j
	}
	if len(entries) == 0 {
		delete(t.byTag, tag)
	} else {
		t.byTag[tag] = entries
	}
}

// AddOrder adjusts g(pid, sibTag) of tag's path-order table by d,
// creating the table and cell structures on first use and deleting
// them as counts vanish, so an incrementally maintained table set is
// structurally identical to a re-collected one.
func (ts *OrderTables) AddOrder(tag string, region Region, pid *bitset.Bitset, sibTag string, d float64) {
	if d == 0 {
		return
	}
	tbl := ts.byTag[tag]
	if tbl == nil {
		tbl = newOrderTable(tag)
		ts.byTag[tag] = tbl
	}
	m := tbl.cells[region][pid]
	if m == nil {
		m = make(map[string]float64)
		tbl.cells[region][pid] = m
	}
	if c := m[sibTag] + d; c != 0 {
		m[sibTag] = c
		return
	}
	delete(m, sibTag)
	if len(m) > 0 {
		return
	}
	delete(tbl.cells[region], pid)
	if len(tbl.cells[Before]) == 0 && len(tbl.cells[After]) == 0 {
		delete(ts.byTag, tag)
	}
}

// GroupMember is one child of a sibling group as the order sweep sees
// it: its tag and its path id.
type GroupMember struct {
	Tag string
	Pid *bitset.Bitset
}

// AppendGroup appends the members of the sibling group kids, labeled
// by l, to dst.
func AppendGroup(dst []GroupMember, kids []*xmltree.Node, l *pathenc.Labeling) []GroupMember {
	for _, c := range kids {
		dst = append(dst, GroupMember{Tag: c.Tag, Pid: l.PidOf(c)})
	}
	return dst
}

// ApplyGroup adds sign times the Path-Order contributions of one
// sibling group. It sweeps the group left to right, keeping per tag the
// number of members strictly before and strictly after the current
// one, and lands the member in the Before region for every tag still to
// come and in the After region for every tag already seen. Same-tag
// siblings count like any other tag (the paper's definition does not
// exclude Y = X, and queries such as q1[/B/folls::B] need the cells).
// With sign -1 it retracts a group's contributions. Groups of fewer
// than two members contribute nothing.
func (ts *OrderTables) ApplyGroup(members []GroupMember, sign float64) {
	if len(members) < 2 {
		return
	}
	var buf [16]tagTally
	tally := buf[:0]
	for _, m := range members {
		i := findTally(tally, m.Tag)
		if i < 0 {
			i = len(tally)
			tally = append(tally, tagTally{tag: m.Tag})
		}
		tally[i].after++
	}
	for _, m := range members {
		i := findTally(tally, m.Tag)
		tally[i].after--
		for _, c := range tally {
			if c.after > 0 {
				ts.AddOrder(m.Tag, Before, m.Pid, c.tag, sign)
			}
			if c.before > 0 {
				ts.AddOrder(m.Tag, After, m.Pid, c.tag, sign)
			}
		}
		tally[i].before++
	}
}

// tagTally counts one tag's members of a sibling group on each side of
// the sweep position.
type tagTally struct {
	tag           string
	before, after int
}

func findTally(tally []tagTally, tag string) int {
	for i := range tally {
		if tally[i].tag == tag {
			return i
		}
	}
	return -1
}

// MoveCells rewrites every cell of tag's table from oldPid to newPid
// for one element whose pid changed without its sibling surroundings
// changing: beforeTags are the distinct tags of its following
// siblings, afterTags those of its preceding siblings (the tag sets
// the sweep would charge it for).
func (ts *OrderTables) MoveCells(tag string, oldPid, newPid *bitset.Bitset, beforeTags, afterTags []string) {
	for _, t := range beforeTags {
		ts.AddOrder(tag, Before, oldPid, t, -1)
		ts.AddOrder(tag, Before, newPid, t, 1)
	}
	for _, t := range afterTags {
		ts.AddOrder(tag, After, oldPid, t, -1)
		ts.AddOrder(tag, After, newPid, t, 1)
	}
}
