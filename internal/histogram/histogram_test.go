package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpathest/internal/bitset"
	"xpathest/internal/paperfig"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
)

// figure1 holds the tables of the Figure 1 document, shared read-only
// by the tests so that pid can resolve bit strings against its
// labeling.
var figure1 = stats.Collect(paperfig.Doc(), nil)

// pid returns the Figure 1 labeling's interned instance of the pid
// spelled s, the instance histograms built from figure1 are keyed by.
// Every pid of Figures 1, 2 and 7 is one of its nine.
func pid(s string) *bitset.Bitset {
	for _, p := range figure1.Labeling.Distinct() {
		if p.String() == s {
			return p
		}
	}
	panic("no Figure 1 pid " + s)
}

// figure7Entries is the pathid-frequency list of Figure 7:
// (p2,2) (p3,2) (p1,5) (p5,7).
func figure7Entries() []stats.PidFreq {
	return []stats.PidFreq{
		{Pid: pid("0010"), Freq: 2}, // p2
		{Pid: pid("0011"), Freq: 2}, // p3
		{Pid: pid("0001"), Freq: 5}, // p1
		{Pid: pid("1000"), Freq: 7}, // p5
	}
}

// TestFigure7VarianceZero pins P-Histogram2 of Figure 7: with
// threshold 0 the buckets are {p2,p3}@2, {p1}@5, {p5}@7.
func TestFigure7VarianceZero(t *testing.T) {
	h := BuildP("X", figure7Entries(), 0)
	if h.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d, want 3", h.NumBuckets())
	}
	wantAvg := []float64{2, 5, 7}
	wantSize := []int{2, 1, 1}
	for i, b := range h.Buckets {
		if b.AvgFreq != wantAvg[i] {
			t.Errorf("bucket %d avg = %v, want %v", i, b.AvgFreq, wantAvg[i])
		}
		if len(b.Pids) != wantSize[i] {
			t.Errorf("bucket %d holds %d pids, want %d", i, len(b.Pids), wantSize[i])
		}
	}
	// Lookups return exact frequencies at threshold 0.
	for _, e := range figure7Entries() {
		if got := h.Freq(e.Pid); got != e.Freq {
			t.Errorf("Freq(%s) = %v, want %v", e.Pid, got, e.Freq)
		}
	}
}

// TestFigure7VarianceOne pins P-Histogram1 of Figure 7: with
// threshold 1 the buckets are {p2,p3}@2 (v=0) and {p1,p5}@6 (v=1).
func TestFigure7VarianceOne(t *testing.T) {
	h := BuildP("X", figure7Entries(), 1)
	if h.NumBuckets() != 2 {
		t.Fatalf("NumBuckets = %d, want 2: %+v", h.NumBuckets(), h.Buckets)
	}
	if h.Buckets[0].AvgFreq != 2 || len(h.Buckets[0].Pids) != 2 {
		t.Errorf("bucket 0 = %+v, want {p2,p3}@2", h.Buckets[0])
	}
	if h.Buckets[1].AvgFreq != 6 || len(h.Buckets[1].Pids) != 2 {
		t.Errorf("bucket 1 = %+v, want {p1,p5}@6", h.Buckets[1])
	}
	if got := h.Freq(pid("0001")); got != 6 {
		t.Errorf("Freq(p1) = %v, want bucket average 6", got)
	}
	if v := CheckPVariance(h, figure7Entries()); v > 1 {
		t.Errorf("intra-bucket variance %v exceeds threshold 1", v)
	}
}

func TestFreqUnknownPid(t *testing.T) {
	h := BuildP("X", figure7Entries(), 0)
	if got := h.Freq(pid("0100")); got != 0 {
		t.Fatalf("Freq of absent pid = %v, want 0", got)
	}
}

func TestBuildPEmptyAndNegative(t *testing.T) {
	h := BuildP("X", nil, 0)
	if h.NumBuckets() != 0 {
		t.Fatalf("empty input produced %d buckets", h.NumBuckets())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative threshold did not panic")
		}
	}()
	BuildP("X", nil, -1)
}

func TestPidOrderSortedByFrequency(t *testing.T) {
	h := BuildP("X", figure7Entries(), 5)
	order := h.PidOrder()
	if len(order) != 4 {
		t.Fatalf("PidOrder has %d pids", len(order))
	}
	freqOf := map[string]float64{}
	for _, e := range figure7Entries() {
		freqOf[e.Pid.Key()] = e.Freq
	}
	for i := 1; i < len(order); i++ {
		if freqOf[order[i-1].Key()] > freqOf[order[i].Key()] {
			t.Fatalf("PidOrder not frequency-sorted at %d", i)
		}
	}
}

func TestBuildOFigure1B(t *testing.T) {
	tbs := figure1
	bTable := tbs.Order.Table("B")
	ph := BuildP("B", tbs.Freq.Entries("B"), 0)
	h := BuildO(bTable, ph.PidOrder(), 0)

	// B's order table has a single pid column (p5) and rows for
	// sibling tags B and C in both regions.
	if len(h.Cols) != 1 || h.Cols[0].String() != "1000" {
		t.Fatalf("Cols = %v, want [1000]", h.Cols)
	}
	if len(h.Rows) != 4 {
		t.Fatalf("Rows = %v, want 4 rows (B,C × 2 regions)", h.Rows)
	}

	p5 := pid("1000")
	if got := h.Get(stats.Before, p5, "C"); got != 1 {
		t.Errorf("Get(before, p5, C) = %v, want 1", got)
	}
	if got := h.Get(stats.After, p5, "C"); got != 2 {
		t.Errorf("Get(after, p5, C) = %v, want 2", got)
	}
	if got := h.Get(stats.Before, p5, "Z"); got != 0 {
		t.Errorf("Get of unknown tag = %v, want 0", got)
	}
	if got := h.Get(stats.Before, pid("1100"), "C"); got != 0 {
		t.Errorf("Get of unknown pid = %v, want 0", got)
	}
	if v := CheckOVariance(h, bTable); v != 0 {
		t.Errorf("variance at threshold 0 = %v", v)
	}
}

// TestBuildOBoxGrowth exercises the cell→row→box extension on a
// handcrafted sibling structure:
//
//	parent type 1 (×2): x a b   → x before a, x before b
//	parent type 2 (×4): a x b   → x after a and before b
//
// x has one pid; the grid is
//
//	            col p(x)
//	before a        2
//	before b        6
//	after  a        4
//
// With threshold 2 the run {2} cannot absorb 6 (variance 2.83), so
// buckets split; with a large threshold everything merges into one
// column box of avg 4.
func TestBuildOBoxGrowth(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Open("r")
	for i := 0; i < 2; i++ {
		b.Open("p").Leaf("x", "").Leaf("a", "").Leaf("b", "").Close()
	}
	for i := 0; i < 4; i++ {
		b.Open("p").Leaf("a", "").Leaf("x", "").Leaf("b", "").Close()
	}
	b.Close()
	doc := b.Document()
	tbs := stats.Collect(doc, nil)
	xt := tbs.Order.Table("x")
	if xt == nil {
		t.Fatal("no order table for x")
	}
	ph := BuildP("x", tbs.Freq.Entries("x"), 0)

	// Exact values first.
	xpid := tbs.Freq.Entries("x")[0].Pid
	if got := xt.Get(stats.Before, xpid, "a"); got != 2 {
		t.Fatalf("before a = %v, want 2", got)
	}
	if got := xt.Get(stats.Before, xpid, "b"); got != 6 {
		t.Fatalf("before b = %v, want 6", got)
	}
	if got := xt.Get(stats.After, xpid, "a"); got != 4 {
		t.Fatalf("after a = %v, want 4", got)
	}

	tight := BuildO(xt, ph.PidOrder(), 0)
	if tight.NumBuckets() != 3 {
		t.Fatalf("threshold 0: %d buckets, want 3", tight.NumBuckets())
	}
	for _, c := range []struct {
		region stats.Region
		tag    string
		want   float64
	}{{stats.Before, "a", 2}, {stats.Before, "b", 6}, {stats.After, "a", 4}} {
		if got := tight.Get(c.region, xpid, c.tag); got != c.want {
			t.Errorf("threshold 0: Get(%v,%s) = %v, want %v", c.region, c.tag, got, c.want)
		}
	}

	loose := BuildO(xt, ph.PidOrder(), 10)
	if loose.NumBuckets() != 1 {
		t.Fatalf("threshold 10: %d buckets, want 1: %+v", loose.NumBuckets(), loose.Buckets)
	}
	if got := loose.Buckets[0].Avg; got != 4 {
		t.Fatalf("merged avg = %v, want (2+6+4)/3 = 4", got)
	}
	if v := CheckOVariance(loose, xt); v > 10 {
		t.Fatalf("variance %v exceeds 10", v)
	}
}

func TestBuildONegativeThresholdPanics(t *testing.T) {
	tbs := figure1
	defer func() {
		if recover() == nil {
			t.Fatal("negative threshold did not panic")
		}
	}()
	BuildO(tbs.Order.Table("B"), nil, -0.5)
}

func TestPSetAndOSet(t *testing.T) {
	tbs := figure1
	n := tbs.Labeling.NumDistinct()
	ps := BuildPSet(tbs.Freq, n, 0)
	if got := len(ps.Tags()); got != 7 {
		t.Fatalf("PSet covers %d tags, want 7", got)
	}
	if ps.Histogram("B") == nil || ps.Histogram("nope") != nil {
		t.Fatal("PSet.Histogram lookup broken")
	}
	if len(ps.Entries("B")) != 2 {
		t.Fatalf("PSet.Entries(B) = %v", ps.Entries("B"))
	}
	if ps.Entries("nope") != nil {
		t.Fatal("PSet.Entries of unknown tag should be nil")
	}
	if ps.SizeBytes() <= 0 {
		t.Fatal("PSet size must be positive")
	}

	os := BuildOSet(tbs.Order, ps, n, 0)
	if os.Histogram("B") == nil {
		t.Fatal("OSet missing B")
	}
	if got := os.Get("B", stats.After, pid("1000"), "C"); got != 2 {
		t.Fatalf("OSet.Get = %v, want 2", got)
	}
	if got := os.Get("nope", stats.After, pid("1000"), "C"); got != 0 {
		t.Fatalf("OSet.Get unknown tag = %v, want 0", got)
	}
	if os.SizeBytes() <= 0 {
		t.Fatal("OSet size must be positive")
	}
}

// TestMemoryDecreasesWithVariance checks the Figure 9 shape: histogram
// memory is non-increasing in the variance threshold.
func TestMemoryDecreasesWithVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := randomDoc(rng, 600)
	tbs := stats.Collect(doc, nil)
	n := tbs.Labeling.NumDistinct()

	prevP, prevO := math.MaxInt, math.MaxInt
	for _, v := range []float64{0, 1, 2, 4, 8, 14} {
		ps := BuildPSet(tbs.Freq, n, v)
		os := BuildOSet(tbs.Order, ps, n, v)
		if ps.SizeBytes() > prevP {
			t.Fatalf("p-histogram memory grew at variance %v: %d > %d", v, ps.SizeBytes(), prevP)
		}
		if os.SizeBytes() > prevO {
			t.Fatalf("o-histogram memory grew at variance %v: %d > %d", v, os.SizeBytes(), prevO)
		}
		prevP, prevO = ps.SizeBytes(), os.SizeBytes()
	}
}

func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := xmltree.NewBuilder()
	n := 1
	b.Open("root")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(6)
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

// Property: p-histogram construction respects the variance bound, and
// at threshold 0 lookups are exact and frequency mass is preserved.
func TestQuickPHistogramInvariants(t *testing.T) {
	f := func(seed int64, tv uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(200))
		tbs := stats.Collect(doc, nil)
		threshold := float64(tv % 8)
		for _, tag := range tbs.Freq.Tags() {
			entries := tbs.Freq.Entries(tag)
			h := BuildP(tag, entries, threshold)
			if v := CheckPVariance(h, entries); v > threshold+1e-9 {
				return false
			}
			// Every pid must be found, and buckets must partition.
			seen := map[string]bool{}
			for _, b := range h.Buckets {
				for _, p := range b.Pids {
					if seen[p.Key()] {
						return false
					}
					seen[p.Key()] = true
				}
			}
			if len(seen) != len(entries) {
				return false
			}
			if threshold == 0 {
				for _, e := range entries {
					if h.Freq(e.Pid) != e.Freq {
						return false
					}
				}
			}
			// Mass within each bucket is preserved (avg × count).
			exact := map[string]float64{}
			for _, e := range entries {
				exact[e.Pid.Key()] = e.Freq
			}
			for _, b := range h.Buckets {
				mass := 0.0
				for _, p := range b.Pids {
					mass += exact[p.Key()]
				}
				if math.Abs(mass-b.AvgFreq*float64(len(b.Pids))) > 1e-6 {
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

// Property: o-histogram buckets are disjoint, cover every non-empty
// cell, respect the variance bound, and at threshold 0 lookups are
// exact.
func TestQuickOHistogramInvariants(t *testing.T) {
	f := func(seed int64, tv uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(200))
		tbs := stats.Collect(doc, nil)
		threshold := float64(tv % 6)
		ps := BuildPSet(tbs.Freq, tbs.Labeling.NumDistinct(), 0)
		for _, tag := range tbs.Order.Tags() {
			table := tbs.Order.Table(tag)
			var order []*bitset.Bitset
			if ph := ps.Histogram(tag); ph != nil {
				order = ph.PidOrder()
			}
			h := BuildO(table, order, threshold)
			if v := CheckOVariance(h, table); v > threshold+1e-9 {
				return false
			}
			// Disjointness.
			for i, a := range h.Buckets {
				for _, b := range h.Buckets[i+1:] {
					if a.Col1 <= b.Col2 && b.Col1 <= a.Col2 &&
						a.Row1 <= b.Row2 && b.Row1 <= a.Row2 {
						return false
					}
				}
			}
			// Coverage of all non-empty cells, exactness at 0.
			for _, c := range table.Cells() {
				got := h.Get(c.Region, c.Pid, c.SibTag)
				if got == 0 {
					return false
				}
				if threshold == 0 && got != c.Count {
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

func BenchmarkBuildPSet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	doc := randomDoc(rng, 2000)
	tbs := stats.Collect(doc, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildPSet(tbs.Freq, tbs.Labeling.NumDistinct(), 1)
	}
}

func BenchmarkBuildOSet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	doc := randomDoc(rng, 2000)
	tbs := stats.Collect(doc, nil)
	ps := BuildPSet(tbs.Freq, tbs.Labeling.NumDistinct(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildOSet(tbs.Order, ps, tbs.Labeling.NumDistinct(), 1)
	}
}

func TestBuildPEquiCount(t *testing.T) {
	entries := figure7Entries()
	h := BuildPEquiCount("X", entries, 2)
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	// Two buckets of two pids each over sorted {2,2,5,7}.
	if h.Buckets[0].AvgFreq != 2 || h.Buckets[1].AvgFreq != 6 {
		t.Fatalf("averages = %v, %v", h.Buckets[0].AvgFreq, h.Buckets[1].AvgFreq)
	}
	// Every pid resolves; mass preserved per bucket.
	total := 0.0
	for _, e := range entries {
		total += h.Freq(e.Pid)
	}
	if total != 16 {
		t.Fatalf("mass = %v, want 16", total)
	}
	// One bucket collapses to plain averaging.
	h1 := BuildPEquiCount("X", entries, 1)
	if h1.NumBuckets() != 1 || h1.Buckets[0].AvgFreq != 4 {
		t.Fatalf("single bucket = %+v", h1.Buckets)
	}
	// More buckets than pids clamps.
	h9 := BuildPEquiCount("X", entries, 9)
	if h9.NumBuckets() != 4 {
		t.Fatalf("clamped buckets = %d", h9.NumBuckets())
	}
	// Empty input.
	if BuildPEquiCount("X", nil, 3).NumBuckets() != 0 {
		t.Fatal("empty input produced buckets")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("0 buckets accepted")
		}
	}()
	BuildPEquiCount("X", entries, 0)
}

func TestBuildPSetEquiCountMatchesMemory(t *testing.T) {
	tbs := figure1
	n := tbs.Labeling.NumDistinct()
	ref := BuildPSet(tbs.Freq, n, 2)
	equi := BuildPSetEquiCount(tbs.Freq, n, ref)
	if equi.SizeBytes() != ref.SizeBytes() {
		t.Fatalf("memory differs: equi %d vs ref %d", equi.SizeBytes(), ref.SizeBytes())
	}
	for _, tag := range ref.Tags() {
		if equi.Histogram(tag).NumBuckets() != ref.Histogram(tag).NumBuckets() {
			t.Fatalf("%s: bucket counts differ", tag)
		}
	}
}
