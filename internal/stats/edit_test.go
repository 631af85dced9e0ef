package stats

import (
	"testing"

	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

func collectEdit(t *testing.T, s string) (*xmltree.Document, *pathenc.Labeling, *Tables) {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := pathenc.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return doc, lab, Collect(doc, lab)
}

func freqOf(t *FreqTable, tag, pid string) float64 {
	for _, e := range t.Entries(tag) {
		if e.Pid.String() == pid {
			return e.Freq
		}
	}
	return 0
}

// TestAddFreq pins the mutator's append/adjust/vanish semantics
// against a collected table.
func TestAddFreq(t *testing.T) {
	doc, lab, tb := collectEdit(t, `<r><a></a><a></a><b></b></r>`)
	aPid := lab.PidOf(doc.Root.Children[0])
	bPid := lab.PidOf(doc.Root.Children[2])
	aStr, bStr := aPid.String(), bPid.String()

	if tb.Freq.NumTags() != 3 {
		t.Fatalf("NumTags = %d, want 3", tb.Freq.NumTags())
	}
	tb.Freq.AddFreq("a", aPid, 1)
	if got := freqOf(tb.Freq, "a", aStr); got != 3 {
		t.Errorf("a freq after +1 = %v, want 3", got)
	}
	tb.Freq.AddFreq("a", aPid, -1)
	if got := freqOf(tb.Freq, "a", aStr); got != 2 {
		t.Errorf("a freq after -1 = %v, want 2", got)
	}

	// Draining b to zero removes the entry and the tag.
	tb.Freq.AddFreq("b", bPid, -1)
	if got := freqOf(tb.Freq, "b", bStr); got != 0 {
		t.Errorf("b freq after drain = %v, want gone", got)
	}
	if tb.Freq.NumTags() != 2 {
		t.Errorf("NumTags after drain = %d, want 2", tb.Freq.NumTags())
	}

	// A positive delta on an absent entry appends; a negative one on an
	// absent entry is a no-op (nothing to retract).
	tb.Freq.AddFreq("b", bPid, 1)
	if got := freqOf(tb.Freq, "b", bStr); got != 1 {
		t.Errorf("b freq after re-add = %v, want 1", got)
	}
	tb.Freq.AddFreq("zz", bPid, -1)
	if tb.Freq.NumTags() != 3 {
		t.Errorf("NumTags after absent retract = %d, want 3", tb.Freq.NumTags())
	}
}

// TestApplyGroupRoundtrip retracts a sibling group's path-order
// contributions and re-adds them: the retraction must empty the table
// set completely (structures vanish with their counts) and the re-add
// must restore every collected cell.
func TestApplyGroupRoundtrip(t *testing.T) {
	doc, lab, tb := collectEdit(t, `<r><a></a><b></b><a></a></r>`)
	var members []GroupMember
	for _, c := range doc.Root.Children {
		members = append(members, GroupMember{Tag: c.Tag, Pid: lab.PidOf(c)})
	}

	before := tb.Order.NumCells()
	if before == 0 {
		t.Fatal("collected order tables are empty")
	}
	tb.Order.ApplyGroup(members, -1)
	if n := tb.Order.NumCells(); n != 0 {
		t.Fatalf("NumCells after retract = %d, want 0", n)
	}
	if tags := tb.Order.Tags(); len(tags) != 0 {
		t.Fatalf("tags after retract = %v, want none", tags)
	}
	tb.Order.ApplyGroup(members, 1)
	if n := tb.Order.NumCells(); n != before {
		t.Fatalf("NumCells after re-add = %d, want %d", n, before)
	}
	// Spot-check against a fresh collection.
	_, freshLab, fresh := collectEdit(t, `<r><a></a><b></b><a></a></r>`)
	aPid := members[0].Pid
	freshPid := interned(t, freshLab)(aPid.String())
	for _, reg := range []Region{Before, After} {
		got := tb.Order.Table("a").Get(reg, aPid, "b")
		want := fresh.Order.Table("a").Get(reg, freshPid, "b")
		if got != want {
			t.Errorf("g(a,%s)[pid,b] = %v, want %v", reg, got, want)
		}
	}

	// Groups below two members contribute nothing.
	tb.Order.ApplyGroup(members[:1], 1)
	if n := tb.Order.NumCells(); n != before {
		t.Errorf("singleton group changed NumCells to %d", n)
	}
}

// TestAddOrderLifecycle drives one cell from creation to deletion.
func TestAddOrderLifecycle(t *testing.T) {
	doc, lab, _ := collectEdit(t, `<r><a></a><b></b></r>`)
	aPid := lab.PidOf(doc.Root.Children[0])

	ts := &OrderTables{byTag: map[string]*OrderTable{}}
	ts.AddOrder("a", Before, aPid, "b", 0)
	if len(ts.Tags()) != 0 {
		t.Fatal("zero delta must not create a table")
	}
	ts.AddOrder("a", Before, aPid, "b", 2)
	if got := ts.Table("a").Get(Before, aPid, "b"); got != 2 {
		t.Fatalf("cell = %v, want 2", got)
	}
	// A second sibling tag in the same cell map keeps the cell alive
	// when the first drains.
	ts.AddOrder("a", Before, aPid, "c", 1)
	ts.AddOrder("a", Before, aPid, "b", -2)
	if got := ts.Table("a").Get(Before, aPid, "c"); got != 1 {
		t.Fatalf("surviving sibling cell = %v, want 1", got)
	}
	ts.AddOrder("a", Before, aPid, "c", -1)
	if len(ts.Tags()) != 0 {
		t.Fatalf("drained table must vanish, tags = %v", ts.Tags())
	}
}

// TestMoveCells rewrites an element's cells from its old pid to a new
// one without changing totals.
func TestMoveCells(t *testing.T) {
	doc, lab, tb := collectEdit(t, `<r><a></a><b></b><a></a></r>`)
	aPid := lab.PidOf(doc.Root.Children[0])
	rootPid := lab.PidOf(doc.Root) // any distinct interned pid works as the target

	before := tb.Order.NumCells()
	tb.Order.MoveCells("a", aPid, rootPid, []string{"b"}, nil)
	if got := tb.Order.Table("a").Get(Before, rootPid, "b"); got != 1 {
		t.Errorf("moved Before cell = %v, want 1", got)
	}
	if got := tb.Order.Table("a").Get(Before, aPid, "b"); got != 0 {
		t.Errorf("old Before cell = %v, want 0", got)
	}
	tb.Order.MoveCells("a", aPid, rootPid, nil, []string{"b"})
	if got := tb.Order.Table("a").Get(After, rootPid, "b"); got != 1 {
		t.Errorf("moved After cell = %v, want 1", got)
	}
	if tb.Order.NumCells() != before {
		t.Errorf("NumCells changed: %d != %d", tb.Order.NumCells(), before)
	}
}
