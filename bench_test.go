package xpathest

// bench_test.go holds one benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates the
// corresponding rows/series through the experiment harness and prints
// them once (run with -v to see them), while the timed loop measures
// the computation the table/figure is about:
//
//	go test -bench=. -benchmem
//
// Dataset scale is kept small so the whole suite runs in minutes; use
// cmd/xpest with -scale 1.0 to reproduce at paper scale.

import (
	"bytes"
	"sync"
	"testing"

	"xpathest/internal/datagen"
	"xpathest/internal/experiments"
)

var (
	benchOnce sync.Once
	benchEnvs []*experiments.Env
)

// benchSetup prepares the three datasets once per test binary run.
func benchSetup(b *testing.B) []*experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnvs = experiments.Setup(experiments.Options{
			Seed: 42, Scale: 0.03, NumSimple: 600, NumBranch: 600,
		})
	})
	return benchEnvs
}

// logOnce renders an experiment into the benchmark log on the first
// iteration so `-bench -v` reproduces the paper's rows.
func logOnce(b *testing.B, i int, name string, envs []*experiments.Env) {
	if i != 0 {
		return
	}
	var buf bytes.Buffer
	if err := experiments.Run(name, envs, &buf); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset
// characteristics); the timed loop measures characteristic extraction.
func BenchmarkTable1Datasets(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(envs)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
		logOnce(b, i, "table1", envs)
	}
}

// BenchmarkTable2Workload regenerates Table 2 (workload sizes).
func BenchmarkTable2Workload(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(envs)
		if rows[0].Total == 0 {
			b.Fatal("empty workload")
		}
		logOnce(b, i, "table2", envs)
	}
}

// BenchmarkTable3Space regenerates Table 3 (encoding table, path-id
// table and binary-tree sizes).
func BenchmarkTable3Space(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(envs)
		if rows[2].BinTreeBytes == 0 {
			b.Fatal("no tree size")
		}
		logOnce(b, i, "table3", envs)
	}
}

// BenchmarkTable4Construction regenerates Table 4: p-histogram
// construction (and the XSketch comparison at matched budget).
func BenchmarkTable4Construction(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(envs)
		if rows[0].PHistoMaxBytes == 0 {
			b.Fatal("no histogram")
		}
		logOnce(b, i, "table4", envs)
	}
}

// BenchmarkTable5OrderConstruction regenerates Table 5: o-histogram
// construction.
func BenchmarkTable5OrderConstruction(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5(envs)
		if rows[0].OHistoMaxBytes == 0 {
			b.Fatal("no histogram")
		}
		logOnce(b, i, "table5", envs)
	}
}

// BenchmarkFigure9Memory regenerates the Figure 9 memory-vs-variance
// sweep.
func BenchmarkFigure9Memory(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure9(envs)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
		logOnce(b, i, "fig9", envs)
	}
}

// BenchmarkFigure10NoOrderError regenerates the Figure 10 accuracy
// sweep for queries without order axes.
func BenchmarkFigure10NoOrderError(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure10(envs)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
		logOnce(b, i, "fig10", envs)
	}
}

// BenchmarkFigure11VsXSketch regenerates the Figure 11 comparison at
// matched memory.
func BenchmarkFigure11VsXSketch(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure11(envs)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
		logOnce(b, i, "fig11", envs)
	}
}

// BenchmarkFigure12OrderBranchError regenerates Figure 12 (order
// queries, target in branch part).
func BenchmarkFigure12OrderBranchError(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure12(envs)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
		logOnce(b, i, "fig12", envs)
	}
}

// BenchmarkFigure13OrderTrunkError regenerates Figure 13 (order
// queries, target in trunk part).
func BenchmarkFigure13OrderTrunkError(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure13(envs)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
		logOnce(b, i, "fig13", envs)
	}
}

// BenchmarkEstimateSimple measures a single simple-query estimation on
// a prepared summary — the per-query cost a query optimizer would pay.
func BenchmarkEstimateSimple(b *testing.B) {
	envs := benchSetup(b)
	est := envs[0].Estimator(0, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateString("//PLAY/ACT/SCENE/SPEECH"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateOrder measures a single order-query estimation.
func BenchmarkEstimateOrder(b *testing.B) {
	envs := benchSetup(b)
	est := envs[0].Estimator(0, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateString("//SCENE[/SPEECH/folls::STAGEDIR]"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactEvaluation measures the ground-truth evaluator for
// scale: the cost the estimator avoids.
func BenchmarkExactEvaluation(b *testing.B) {
	d, err := GenerateDataset(SSPlays, 42, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ExactCount("//PLAY/ACT/SCENE/SPEECH"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the extension ablation table (Eq (2)
// correction and Eq (5) bound).
func BenchmarkAblation(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablation(envs)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
		logOnce(b, i, "ablation", envs)
	}
}

// BenchmarkPosHist regenerates the extension comparison against the
// position histogram (the Section 8 critique).
func BenchmarkPosHist(b *testing.B) {
	envs := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.PosHist(envs)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
		logOnce(b, i, "poshist", envs)
	}
}

// BenchmarkSummarySaveLoad measures synopsis serialization round trips.
func BenchmarkSummarySaveLoad(b *testing.B) {
	d, err := GenerateDataset(DBLP, 42, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	sum := d.BuildSummary(SummaryOptions{PVariance: 1, OVariance: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := sum.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSummary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseDocument times the one scan that parses, labels and
// collects perfbench's XMark document (datagen seed 1, scale 0.125).
func BenchmarkParseDocument(b *testing.B) {
	var buf bytes.Buffer
	if err := datagen.XMark(datagen.Config{Seed: 1, Scale: 0.125}).WriteXML(&buf, false); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDocument(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
