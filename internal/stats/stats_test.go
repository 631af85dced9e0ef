package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xpathest/internal/bitset"
	"xpathest/internal/datagen"
	"xpathest/internal/paperfig"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

func collectFigure1(t testing.TB) *Tables {
	t.Helper()
	return Collect(paperfig.Doc(), nil)
}

// TestFreqTableFigure2a pins the PathId-Frequency table of Figure 2(a).
func TestFreqTableFigure2a(t *testing.T) {
	tb := collectFigure1(t)
	want := map[string]map[string]float64{
		"Root": {"1111": 1},
		"A":    {"1010": 1, "1011": 1, "1100": 1},
		"B":    {"1100": 1, "1000": 3},
		"C":    {"0010": 1, "0011": 1},
		"D":    {"1000": 4},
		"E":    {"0100": 1, "0010": 2},
		"F":    {"0001": 1},
	}
	got := map[string]map[string]float64{}
	for _, tag := range tb.Freq.Tags() {
		got[tag] = map[string]float64{}
		for _, e := range tb.Freq.Entries(tag) {
			got[tag][e.Pid.String()] += e.Freq
		}
	}
	for tag, wantPids := range want {
		for pid, freq := range wantPids {
			if got[tag][pid] != freq {
				t.Errorf("Freq[%s][%s] = %v, want %v", tag, pid, got[tag][pid], freq)
			}
		}
		if len(got[tag]) != len(wantPids) {
			t.Errorf("tag %s has entries %v, want %v", tag, got[tag], wantPids)
		}
	}
	if len(got) != len(want) {
		t.Errorf("tags = %v, want %v", tb.Freq.Tags(), want)
	}
	// 12 (tag, pid) pairs in total.
	if n := tb.Freq.NumEntries(); n != 12 {
		t.Errorf("NumEntries = %d, want 12", n)
	}
}

// TestOrderTableFigure2b pins the path-order table for B of
// Figure 2(b): one B with p5 occurs before C, two occur after C.
func TestOrderTableFigure2b(t *testing.T) {
	tb := collectFigure1(t)
	b := tb.Order.Table("B")
	if b == nil {
		t.Fatal("no order table for B")
	}
	p5 := bitset.MustFromString("1000")
	p8 := bitset.MustFromString("1100")

	if got := b.Get(Before, p5, "C"); got != 1 {
		t.Errorf("g(p5, C) in +element = %v, want 1", got)
	}
	if got := b.Get(After, p5, "C"); got != 2 {
		t.Errorf("g(p5, C) in element+ = %v, want 2", got)
	}
	// B with p8 is an only child: it has no sibling cells at all.
	for _, region := range []Region{Before, After} {
		for _, tag := range []string{"A", "B", "C", "D", "E", "F", "Root"} {
			if got := b.Get(region, p8, tag); got != 0 {
				t.Errorf("g(p8, %s) in %v = %v, want 0", tag, region, got)
			}
		}
	}
	// Same-tag cells: within A2 the first B(p5) precedes the second.
	if got := b.Get(Before, p5, "B"); got != 1 {
		t.Errorf("g(p5, B) in +element = %v, want 1", got)
	}
	if got := b.Get(After, p5, "B"); got != 1 {
		t.Errorf("g(p5, B) in element+ = %v, want 1", got)
	}
}

func TestOrderTableOtherTags(t *testing.T) {
	tb := collectFigure1(t)
	p2 := bitset.MustFromString("0010")
	p1 := bitset.MustFromString("0001")
	p5 := bitset.MustFromString("1000")
	p4 := bitset.MustFromString("0100")

	// E before F under C(p3) of A2.
	e := tb.Order.Table("E")
	if got := e.Get(Before, p2, "F"); got != 1 {
		t.Errorf("E: g(p2, F) before = %v, want 1", got)
	}
	// F after E.
	f := tb.Order.Table("F")
	if got := f.Get(After, p1, "E"); got != 1 {
		t.Errorf("F: g(p1, E) after = %v, want 1", got)
	}
	// D before E under B(p8) of A1.
	d := tb.Order.Table("D")
	if got := d.Get(Before, p5, "E"); got != 1 {
		t.Errorf("D: g(p5, E) before = %v, want 1", got)
	}
	if got := d.Get(After, p5, "E"); got != 0 {
		t.Errorf("D: g(p5, E) after = %v, want 0", got)
	}
	// E after D in the same group.
	if got := e.Get(After, p4, "D"); got != 1 {
		t.Errorf("E: g(p4, D) after = %v, want 1", got)
	}
	// C sees B both before and after (A2: B,C,B) and before (A3: C,B).
	c := tb.Order.Table("C")
	p3 := bitset.MustFromString("0011")
	if got := c.Get(After, p3, "B"); got != 1 {
		t.Errorf("C: g(p3, B) after = %v, want 1", got)
	}
	if got := c.Get(Before, p3, "B"); got != 1 {
		t.Errorf("C: g(p3, B) before = %v, want 1", got)
	}
	if got := c.Get(Before, p2, "B"); got != 1 {
		t.Errorf("C: g(p2, B) before = %v, want 1", got)
	}
}

// The three A siblings under Root all share the tag A: same-tag order
// cells must appear for A.
func TestOrderTableRootChildren(t *testing.T) {
	tb := collectFigure1(t)
	a := tb.Order.Table("A")
	if a == nil {
		t.Fatal("no order table for A")
	}
	p8 := bitset.MustFromString("1100")
	p7 := bitset.MustFromString("1011")
	p6 := bitset.MustFromString("1010")
	if got := a.Get(Before, p8, "A"); got != 1 {
		t.Errorf("A: g(p8, A) before = %v", got)
	}
	if got := a.Get(Before, p7, "A"); got != 1 {
		t.Errorf("A: g(p7, A) before = %v", got)
	}
	if got := a.Get(Before, p6, "A"); got != 0 {
		t.Errorf("A: g(p6, A) before = %v (last sibling)", got)
	}
	if got := a.Get(After, p6, "A"); got != 1 {
		t.Errorf("A: g(p6, A) after = %v", got)
	}
}

func TestCellsDeterministic(t *testing.T) {
	tb := collectFigure1(t)
	b := tb.Order.Table("B")
	c1 := b.Cells()
	c2 := b.Cells()
	if len(c1) != len(c2) {
		t.Fatal("Cells not stable")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("Cells order unstable at %d: %v vs %v", i, c1[i], c2[i])
		}
	}
	if b.NumCells() != len(c1) {
		t.Fatalf("NumCells = %d, len(Cells) = %d", b.NumCells(), len(c1))
	}
}

func TestSibTagsAndPids(t *testing.T) {
	tb := collectFigure1(t)
	b := tb.Order.Table("B")
	tags := b.SibTags()
	want := []string{"B", "C"}
	if len(tags) != len(want) {
		t.Fatalf("SibTags = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("SibTags = %v, want %v", tags, want)
		}
	}
	pids := b.Pids()
	if len(pids) != 1 || pids[0].String() != "1000" {
		t.Fatalf("Pids = %v, want [1000]", pids)
	}
}

func TestSizes(t *testing.T) {
	tb := collectFigure1(t)
	if tb.Freq.SizeBytes(1) <= 0 {
		t.Fatal("FreqTable size must be positive")
	}
	if tb.Order.SizeBytes(1) != tb.Order.NumCells()*7 {
		t.Fatalf("Order SizeBytes = %d, want %d", tb.Order.SizeBytes(1), tb.Order.NumCells()*7)
	}
}

func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	b := xmltree.NewBuilder()
	n := 1
	b.Open("root")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(5)
		for i := 0; i < kids && n < maxNodes; i++ {
			n++
			b.Open(tags[rng.Intn(len(tags))])
			if depth < 5 {
				grow(depth + 1)
			}
			b.Close()
		}
	}
	grow(0)
	b.Close()
	return b.Document()
}

// Property: the frequency table's total mass equals the element count,
// and per-tag mass equals the tag count.
func TestQuickFreqMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(150))
		tb := Collect(doc, nil)
		total := 0.0
		for _, tag := range tb.Freq.Tags() {
			sum := 0.0
			for _, e := range tb.Freq.Entries(tag) {
				sum += e.Freq
			}
			if int(sum) != doc.TagCount(tag) {
				return false
			}
			total += sum
		}
		return int(total) == doc.NumElements()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: order tables agree with a brute-force recount over sibling
// groups.
func TestQuickOrderBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(120))
		l := pathenc.MustBuild(doc)
		got := CollectOrder(doc, l)

		// Brute force: for each child x and tag Y, test siblings.
		want := map[string]float64{} // tag|region|pidkey|sib -> count
		doc.Walk(func(p *xmltree.Node) bool {
			for i, x := range p.Children {
				beforeTags := map[string]bool{}
				afterTags := map[string]bool{}
				for j, y := range p.Children {
					if j < i {
						afterTags[y.Tag] = true // x occurs after y
					} else if j > i {
						beforeTags[y.Tag] = true // x occurs before y
					}
				}
				for tag := range beforeTags {
					want[x.Tag+"|B|"+l.PidOf(x).Key()+"|"+tag]++
				}
				for tag := range afterTags {
					want[x.Tag+"|A|"+l.PidOf(x).Key()+"|"+tag]++
				}
			}
			return true
		})

		// Compare both directions.
		total := 0.0
		for _, tag := range got.Tags() {
			tbl := got.Table(tag)
			for _, cell := range tbl.Cells() {
				r := "B"
				if cell.Region == After {
					r = "A"
				}
				key := tag + "|" + r + "|" + cell.Pid.Key() + "|" + cell.SibTag
				if want[key] != cell.Count {
					return false
				}
				total += cell.Count
			}
		}
		sum := 0.0
		for _, v := range want {
			sum += v
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry — the number of (X before Y) incidences summed
// over X's pids equals the number of (Y after X) incidences summed
// over Y's pids, for every ordered tag pair... counted per element, so
// the two counts need not be equal in general (an X before three Ys is
// one incidence). Instead we check the weaker invariant that a Before
// cell for (X, Y) implies an After cell for (Y, X) somewhere.
func TestQuickOrderDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(120))
		tbs := Collect(doc, nil)
		for _, tagX := range tbs.Order.Tags() {
			for _, cell := range tbs.Order.Table(tagX).Cells() {
				if cell.Count <= 0 {
					return false // cells must be non-empty
				}
				other := tbs.Order.Table(cell.SibTag)
				if other == nil {
					return false
				}
				dual := Before
				if cell.Region == Before {
					dual = After
				}
				found := false
				for _, dc := range other.Cells() {
					if dc.Region == dual && dc.SibTag == tagX {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleChildNoOrder(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Open("r").Open("a").Leaf("b", "").Close().Close()
	tb := Collect(b.Document(), nil)
	if n := tb.Order.NumCells(); n != 0 {
		t.Fatalf("single-child chains produced %d order cells", n)
	}
}

// BenchmarkCollect times Collect over a labeled tree: the Figure 1
// document, and XMark at perfbench's scale (seed 1, scale 0.125).
func BenchmarkCollect(b *testing.B) {
	for _, c := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"Figure1", paperfig.Doc()},
		{"XMark", datagen.XMark(datagen.Config{Seed: 1, Scale: 0.125})},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := pathenc.MustBuild(c.doc)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Collect(c.doc, l)
			}
		})
	}
}
