package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"xpathest/internal/workload"
)

// benchmarkJSON reads the metric declarations in BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// checkMetrics asserts the result carries exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, w string, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d", w, len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", w, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", w, name, m.Unit, unit)
		}
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks every declared metric is printed with its unit and every
// answer was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server under load")
	}
	e2e, layers := benchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 1, trace: trace, rounds: 1, out: t.TempDir()}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				checkMetrics(t, w, res, layers)
				if shed := res.Metrics["server.shed"].Value; shed != 0 {
					t.Errorf("%s: server shed %v requests", w, shed)
				}
			} else {
				checkMetrics(t, w, res, e2e)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestInjectedFailuresCount checks that a wrong answer (a flipped bit
// in an expected value) and a non-200 response each count as exactly
// one failed op, on each of the answer checks: read-hot's precomputed
// oracle, read-cold's verification after the window (for a GET and
// for a batch, whose 32 wrong slots are one failed op), and write-mix's
// check against every state the name could have been in.
func TestInjectedFailuresCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server under load")
	}
	for _, c := range []struct {
		name     string
		workload string
		faults   faults
		want     int64
	}{
		// Warm-up ops: read-hot sends its 256 pairs; read-cold sends 256
		// GETs, then 8 batches (ops 257–264); write-mix posts /summarize
		// (op 1), then GETs the reader's queries.
		{"read-hot get and non-200", "read-hot", faults{flipOp: 5, badStatusOp: 9}, 2},
		{"read-cold get", "read-cold", faults{flipOp: 5}, 1},
		{"read-cold batch", "read-cold", faults{flipOp: 260}, 1},
		{"write-mix get", "write-mix", faults{flipOp: 5}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config{workload: c.workload, seed: 2, seconds: 0.5, rounds: 1, out: t.TempDir(), faults: c.faults}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != c.want || res.Correct || res.Attempted < 256 {
				t.Fatalf("correct=%v attempted=%d failed=%d, want correct=false and exactly %d failed",
					res.Correct, res.Attempted, res.Failed, c.want)
			}
		})
	}
}

// TestStructuralFilterMatchesEstimator checks the cheap filter the
// query populations are built with: it never accepts a query the
// estimator rejects (that would be a failed op), and it rejects almost
// nothing the estimator accepts.
func TestStructuralFilterMatchesEstimator(t *testing.T) {
	ds, err := genDatasets()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		n, rejected, overcautious := 0, 0, 0
		for _, p := range workload.Random(d.lab, workload.RandomConfig{Seed: 5, Num: 3000}) {
			text := p.String()
			_, ok := acceptedQuery(text)
			_, estErr := d.sum.Estimate(text)
			n++
			switch {
			case ok && estErr != nil:
				t.Errorf("%s: %q: filter accepts it, estimator rejects it: %v", d.name, text, estErr)
			case !ok && estErr == nil:
				overcautious++
			}
			if estErr != nil {
				rejected++
			}
		}
		if rejected == 0 {
			t.Errorf("%s: sample has no rejected query; the check proves nothing", d.name)
		}
		if overcautious*100 > n {
			t.Errorf("%s: filter rejects %d of %d queries the estimator accepts", d.name, overcautious, n)
		}
	}
}

// TestWriteCycleRoutes checks the edit generator's promises on every
// document, for the fixed cycle's script seed and others: each cycle
// has exactly one rebuild op per fresh-tag insert and the element
// count stays in its band.
func TestWriteCycleRoutes(t *testing.T) {
	ds, err := genDatasets()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{writeSeed, 11, 12} {
		for i, d := range ds {
			wp, err := newWritePlan(d, seed+int64(i), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			fast, rebuild := wp.routeCounts()
			if ops := writeScripts * opsPerScript; rebuild != ops/freshEvery || fast+rebuild != ops {
				t.Errorf("%s seed %d: %d fast + %d rebuild ops, want %d rebuild of %d", d.name, seed, fast, rebuild, ops/freshEvery, ops)
			}
			band := wp.elements/50 + 8 + maxEditSubtree
			for k, sp := range wp.scripts {
				if sp.elements < wp.elements-band || sp.elements > wp.elements+band {
					t.Errorf("%s seed %d script %d: %d elements, start %d", d.name, seed, k, sp.elements, wp.elements)
				}
			}
		}
	}
}
