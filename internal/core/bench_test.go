package core

import (
	"testing"

	"xpathest/internal/datagen"
	"xpathest/internal/stats"
	"xpathest/internal/workload"
	"xpathest/internal/xpath"
)

// joinBenchQueries mixes the shapes the path join kernel has to
// handle: plain chains, branch predicates, and descendant edges. The
// set cycles inside the timed loop so the measurement averages over
// shapes instead of over-fitting one.
var joinBenchQueries = []string{
	"//PLAY/ACT/SCENE/SPEECH",
	"//ACT[/SCENE/SPEECH/STAGEDIR]/SCENE/TITLE",
	"//PLAY[/FM/P]//SPEECH/LINE",
	"//SCENE[/SPEECH/SPEAKER]/SPEECH/LINE",
}

// joinBench builds one estimator over a generated SSPlays document and
// builds the query trees once, so the timed loop measures only the
// join.
func joinBench(b *testing.B) (*Estimator, []*xpath.Tree) {
	b.Helper()
	doc := datagen.SSPlays(datagen.Config{Seed: 42, Scale: 0.05})
	tbs := stats.Collect(doc, nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	trees := make([]*xpath.Tree, len(joinBenchQueries))
	for i, q := range joinBenchQueries {
		t, err := xpath.BuildTree(xpath.MustParse(q))
		if err != nil {
			b.Fatalf("%s: %v", q, err)
		}
		if _, err := est.rawJoin(t); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
		trees[i] = t
	}
	return est, trees
}

// BenchmarkPathJoin measures the path-join fixpoint (paper §4) on its
// own, without the order-estimation layers above it.
func BenchmarkPathJoin(b *testing.B) {
	est, trees := joinBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.rawJoin(trees[i%len(trees)]); err != nil {
			b.Fatal(err)
		}
	}
}

// xmarkBench builds one estimator over the XMark document of datagen
// seed 1 at scale 0.125 (310 root-to-leaf paths, so five-word rows,
// and up to 387 entries per tag: the costliest document of the
// read-cold benchmark) and the trees of a fixed workload.Random query
// set. Each tree is run once through run, which warms the witness
// slots, and dropped when run rejects it.
func xmarkBench(b *testing.B, run func(*Estimator, *xpath.Tree) (float64, error)) (*Estimator, []*xpath.Tree) {
	b.Helper()
	tbs := stats.Collect(datagen.XMark(datagen.Config{Seed: 1, Scale: 0.125}), nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	var trees []*xpath.Tree
	for _, p := range workload.Random(tbs.Labeling, workload.RandomConfig{Seed: 1, Num: 256}) {
		t, err := xpath.BuildTree(p)
		if err != nil {
			continue
		}
		if _, err := run(est, t); err == nil {
			trees = append(trees, t)
		}
	}
	if len(trees) == 0 {
		b.Fatal("no XMark query accepted")
	}
	return est, trees
}

// BenchmarkPathJoinXMark is BenchmarkPathJoin on multi-word rows: one
// warm whole-query join per op, cycling over the XMark query set.
func BenchmarkPathJoinXMark(b *testing.B) {
	est, trees := xmarkBench(b, (*Estimator).rawJoin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.rawJoin(trees[i%len(trees)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateXMark is one warm EstimateTree per op over the same
// query set: the joins plus the Equation (2)–(5) layers above them.
func BenchmarkEstimateXMark(b *testing.B) {
	est, trees := xmarkBench(b, (*Estimator).EstimateTree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateTree(trees[i%len(trees)]); err != nil {
			b.Fatal(err)
		}
	}
}
