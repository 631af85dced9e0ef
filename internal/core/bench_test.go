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
// parses the query set once, so the timed loop measures only the join.
func joinBench(b *testing.B) (*Estimator, []*xpath.Path) {
	b.Helper()
	doc := datagen.SSPlays(datagen.Config{Seed: 42, Scale: 0.05})
	tbs := stats.Collect(doc, nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	paths := make([]*xpath.Path, len(joinBenchQueries))
	for i, q := range joinBenchQueries {
		paths[i] = xpath.MustParse(q)
		if _, err := est.RawJoinEstimate(paths[i]); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
	return est, paths
}

// BenchmarkPathJoin measures the path-join fixpoint (paper §4) on its
// own, without the order-estimation layers above it.
func BenchmarkPathJoin(b *testing.B) {
	est, paths := joinBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.RawJoinEstimate(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// xmarkBench builds one estimator over the XMark document of datagen
// seed 1 at scale 0.125 (310 root-to-leaf paths, so five-word rows,
// and up to 387 entries per tag: the costliest document of the
// read-cold benchmark) and a fixed workload.Random query set. Each
// query is run once through run, which warms the witness slots and
// the tree cache, and dropped when run rejects it.
func xmarkBench(b *testing.B, run func(*Estimator, *xpath.Path) (float64, error)) (*Estimator, []*xpath.Path) {
	b.Helper()
	tbs := stats.Collect(datagen.XMark(datagen.Config{Seed: 1, Scale: 0.125}), nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	var paths []*xpath.Path
	for _, p := range workload.Random(tbs.Labeling, workload.RandomConfig{Seed: 1, Num: 256}) {
		if _, err := run(est, p); err == nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		b.Fatal("no XMark query accepted")
	}
	return est, paths
}

// BenchmarkPathJoinXMark is BenchmarkPathJoin on multi-word rows: one
// warm whole-query join per op, cycling over the XMark query set.
func BenchmarkPathJoinXMark(b *testing.B) {
	est, paths := xmarkBench(b, (*Estimator).RawJoinEstimate)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.RawJoinEstimate(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateXMark is one warm Estimate per op over the same
// query set: the joins plus the Equation (2)–(5) layers above them.
func BenchmarkEstimateXMark(b *testing.B) {
	est, paths := xmarkBench(b, (*Estimator).Estimate)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}
