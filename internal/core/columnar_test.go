package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xpathest/internal/datagen"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/workload"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// TestArenaCapPolicy pins the snapshot's sparse-fallback threshold:
// an entries×stride product at the 128 MiB arena budget stays dense,
// one word over falls back to pointer containment. (The product is
// checked directly — materializing a 16M-word arena in a unit test
// would pin the memory the cap exists to avoid.)
func TestArenaCapPolicy(t *testing.T) {
	if overArenaCap(maxArenaWords, 1) {
		t.Fatal("arena exactly at cap fell back to sparse")
	}
	if !overArenaCap(maxArenaWords+1, 1) {
		t.Fatal("arena one word over cap stayed dense")
	}
	if !overArenaCap(maxArenaWords/2+1, 2) {
		t.Fatal("stride not multiplied into the cap check")
	}
}

// sparseClone deep-copies a dense snapshot into its sparse shape: same
// columns, no word arena, no pivot index, an empty witness table. The
// containment sweeps must behave identically through the *Bitset
// fallback, which is also the linear sweep the indexed join is checked
// against.
func sparseClone(s *snapshot) *snapshot {
	cols := *s.cols
	cols.Words = nil
	c := &snapshot{
		cols:   &cols,
		tagID:  s.tagID,
		names:  s.names,
		spans:  s.spans,
		sparse: true,
		totals: s.totals,
		local:  s.local,
	}
	c.wit.Store(newWitTable(minWitSlots))
	return c
}

// TestColumnarMatchesReference is the old-vs-new equivalence property
// test: over seeded random documents, every (ancestor entry,
// descendant entry, axis) verdict reachable through the columnar
// snapshot — arena-row containment plus the memoized witness bit —
// must equal the labeling's direct EdgeCompatible, and the sparse
// fallback must agree with the dense arena. rawFreq must return
// exactly the source frequency for present pids and 0 otherwise.
func TestColumnarMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 3, 17} {
		doc := datagen.SSPlays(datagen.Config{Seed: seed, Scale: 0.01})
		tbs := stats.Collect(doc, nil)
		src := TableSource{Tables: tbs}
		k := newKernel(tbs.Labeling, src)
		snap := k.snapshot()
		if snap.sparse {
			t.Fatalf("seed %d: small document built a sparse snapshot", seed)
		}
		sp := sparseClone(snap)

		tags := src.Tags()
		for _, ancTag := range tags {
			for _, descTag := range tags {
				aID, dID := snap.tagID[ancTag], snap.tagID[descTag]
				aSpan, dSpan := snap.spans[aID], snap.spans[dID]
				for _, axis := range []pathenc.Axis{pathenc.Child, pathenc.Descendant} {
					wit := k.witness(snap, aID, dID, axis)
					for ai := aSpan.base; ai < aSpan.base+aSpan.n; ai++ {
						for di := dSpan.base; di < dSpan.base+dSpan.n; di++ {
							want := tbs.Labeling.EdgeCompatible(
								ancTag, snap.cols.Pids[ai], descTag, snap.cols.Pids[di], axis)
							got := bitAt(wit, di-dSpan.base) && snap.containsAny(ai, []int32{di})
							if got != want {
								t.Fatalf("seed %d %s/%s axis %v entry %d/%d: columnar %v, reference %v",
									seed, ancTag, descTag, axis, ai, di, got, want)
							}
							if s := bitAt(wit, di-dSpan.base) && sp.containsAny(ai, []int32{di}); s != want {
								t.Fatalf("seed %d %s/%s: sparse verdict %v, reference %v", seed, ancTag, descTag, s, want)
							}
							if d, s := snap.anyContains([]int32{ai}, di), sp.anyContains([]int32{ai}, di); d != s {
								t.Fatalf("seed %d %s/%s: anyContains dense %v, sparse %v", seed, ancTag, descTag, d, s)
							}
						}
					}
				}
			}
		}

		for _, tag := range tags {
			for _, e := range src.Entries(tag) {
				if got := snap.rawFreq(tag, e.Pid); got != e.Freq {
					t.Fatalf("seed %d rawFreq(%s) = %v, want %v", seed, tag, got, e.Freq)
				}
			}
		}
		if snap.rawFreq("NOSUCHTAG", snap.cols.Pids[0]) != 0 {
			t.Fatalf("seed %d: rawFreq of unknown tag not 0", seed)
		}
	}
}

// TestColumnarTotalsMatchEntries pins tagTotal against a straight
// entry-order summation of the source lists — the exact float the old
// per-clamp loop produced.
func TestColumnarTotalsMatchEntries(t *testing.T) {
	doc := datagen.SSPlays(datagen.Config{Seed: 7, Scale: 0.01})
	tbs := stats.Collect(doc, nil)
	src := TableSource{Tables: tbs}
	snap := newKernel(tbs.Labeling, src).snapshot()
	for _, tag := range src.Tags() {
		want := 0.0
		for _, e := range canonicalEntries(src.Entries(tag)) {
			want += e.Freq
		}
		if got := snap.tagTotal(tag); got != want {
			t.Fatalf("tagTotal(%s) = %v, want %v", tag, got, want)
		}
	}
	if snap.tagTotal("NOSUCHTAG") != 0 {
		t.Fatal("tagTotal of unknown tag not 0")
	}
}

// TestIndexedJoinMatchesLinear checks the pivot-indexed sweeps against
// the linear ones on one-, two- and five-word rows, which difftest's
// small generated documents rarely reach. The reference estimator runs
// on the sparse clone of the same snapshot (no index, linear sweeps);
// for every workload.Random query, each node's surviving entry ids
// after the full join must match in order, and the estimates must
// match bit for bit.
func TestIndexedJoinMatchesLinear(t *testing.T) {
	for _, c := range []struct {
		name   string
		gen    func(datagen.Config) *xmltree.Document
		scale  float64
		stride int
	}{
		{"SSPlays", datagen.SSPlays, 0.01, 1},
		{"DBLP", datagen.DBLP, 0.005, 2},
		{"XMark", datagen.XMark, 0.04, 5},
	} {
		tbs := stats.Collect(c.gen(datagen.Config{Seed: 1, Scale: c.scale}), nil)
		src := TableSource{Tables: tbs}
		fast, slow := New(tbs.Labeling, src), New(tbs.Labeling, src)
		snap := fast.kern.snapshot()
		if snap.cols.Stride != c.stride || (snap.idx != nil) != (c.stride > 1) {
			t.Fatalf("%s: stride %d, indexed %v; want stride %d", c.name, snap.cols.Stride, snap.idx != nil, c.stride)
		}
		if snap.idx != nil && snap.idx.bytes() > maxIndexPerArena*8*len(snap.cols.Words) {
			t.Fatalf("%s: index %d B over %d× its %d B arena", c.name, snap.idx.bytes(), maxIndexPerArena, 8*len(snap.cols.Words))
		}
		slow.kern.snap.Store(sparseClone(snap))

		checked := 0
		for _, p := range workload.Random(tbs.Labeling, workload.RandomConfig{Seed: 1, Num: 700}) {
			fv, ferr := fast.Estimate(p)
			sv, serr := slow.Estimate(p)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("%s %s: indexed error %v, linear error %v", c.name, p, ferr, serr)
			}
			if ferr != nil {
				continue
			}
			if math.Float64bits(fv) != math.Float64bits(sv) {
				t.Fatalf("%s %s: indexed estimate %v, linear %v", c.name, p, fv, sv)
			}
			tree, err := xpath.BuildTree(p)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, p, err)
			}
			fj, ferr := pathJoin(fast.kern, tree, nil)
			sj, serr := pathJoin(slow.kern, tree, nil)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("%s %s: indexed join error %v, linear %v", c.name, p, ferr, serr)
			}
			for _, n := range tree.Nodes {
				if f, s := fj.state(n).ids, sj.state(n).ids; !slices.Equal(f, s) {
					t.Fatalf("%s %s node %s: indexed survivors %v, linear %v", c.name, p, n.Tag, f, s)
				}
			}
			checked++
		}
		if checked < 500 {
			t.Fatalf("%s: only %d estimable queries checked, want at least 500", c.name, checked)
		}
	}
}

// TestPivotIndexBound checks that a snapshot whose index would pass
// maxIndexPerArena keeps the linear sweeps. Ten x elements over the
// same 100 distinct leaves give two-word rows, and the root's and x's
// rows hold all 100 bits: 300 set bits in 102 rows, an index of
// 4,016 B against a 1,632 B arena.
func TestPivotIndexBound(t *testing.T) {
	b := xmltree.NewBuilder().Open("r")
	for i := 0; i < 10; i++ {
		b.Open("x")
		for j := 0; j < 100; j++ {
			b.Leaf(fmt.Sprintf("l%d", j), "")
		}
		b.Close()
	}
	tbs := stats.Collect(b.Close().Document(), nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	snap := est.kern.snapshot()
	if snap.cols.Stride != 2 || snap.idx != nil {
		t.Fatalf("stride %d, indexed %v; want stride 2 without an index", snap.cols.Stride, snap.idx != nil)
	}
	if v, err := est.Estimate(xpath.MustParse("//x/l7")); err != nil || v != 10 {
		t.Fatalf("//x/l7 = %v, %v; want 10", v, err)
	}
}

// TestWitnessTableFollowsUse bounds the witness table on a document of
// many distinct tags. A flat root over 1,000 child tags has 2·1,001²
// (tag, tag, axis) triples, over two million slots had the table been
// addressed by tag ids; it must instead grow with the triples queries
// fill, here 40, and hold every one of them.
func TestWitnessTableFollowsUse(t *testing.T) {
	b := xmltree.NewBuilder().Open("r")
	for i := 0; i < 1000; i++ {
		b.Leaf(fmt.Sprintf("t%d", i), "")
	}
	tbs := stats.Collect(b.Close().Document(), nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	for i := 0; i < 20; i++ {
		for _, q := range []string{fmt.Sprintf("/r/t%d", 7*i), fmt.Sprintf("//r//t%d", 11*i)} {
			if v, err := est.Estimate(xpath.MustParse(q)); err != nil || v != 1 {
				t.Fatalf("%s = %v, %v; want 1", q, v, err)
			}
		}
	}
	tab := est.kern.snapshot().wit.Load()
	filled := 0
	for i := range tab.slots {
		if tab.slots[i].Load() != nil {
			filled++
		}
	}
	if filled != 40 || len(tab.slots) > 4*filled {
		t.Fatalf("witness table holds %d triples in %d slots; want 40 in at most 160", filled, len(tab.slots))
	}
}
