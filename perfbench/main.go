// Command perfbench is the repository's benchmark. It starts the real
// estimation server (internal/server) in this process on loopback,
// over a summary store filled during set-up, drives it with a closed
// loop of two clients, checks every answer against an in-process
// oracle, and prints the end-to-end metrics of one workload. With
// --trace 1 it instead re-runs the load while replaying every op
// in-process through the layers' public calls, and prints per-layer
// metrics. README.md describes the workloads and the metrics.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

var workloads = []string{"read-hot", "read-cold", "write-mix"}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rounds   int    // set-up rounds; setup_s is their median
	out      string // directory for per-run files and traces
	faults   faults
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-hot, read-cold or write-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.out = ".bench_build"
	cfg.rounds = 3
	if cfg.trace {
		cfg.rounds = 1
	}
	if !known(cfg.workload) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloads)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// run sets up, measures and reports one workload. Human-readable lines
// go to out; the caller prints the returned result as the last line.
func run(ctx context.Context, cfg config, out io.Writer) (res *result, err error) {
	work := filepath.Join(cfg.out, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{w: cfg.workload, seed: cfg.seed, seconds: cfg.seconds, work: work, faults: cfg.faults}
	defer func() {
		if terr := b.teardown(); terr != nil && err == nil {
			res, err = nil, terr
		}
	}()
	for r := 0; r < cfg.rounds; r++ {
		if err := b.setup(ctx, r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if r < cfg.rounds-1 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
	}
	un, err := b.measure()
	if err != nil {
		return nil, err
	}
	var ms map[string]metric
	if !cfg.trace {
		ms = printMetrics(out, cfg.workload, endToEnd(b, un), endToEndDefs)
	} else {
		rp, err := newReplay(ctx, b, filepath.Join(work, "replay-store"))
		if err != nil {
			return nil, err
		}
		b.rp = rp
		b.warmup()
		rp.flush()
		rp.ops = nil // the warm-up is not part of the traced pass
		tr, err := b.measure()
		if err != nil {
			return nil, err
		}
		bySpan, byGroup := traced(rp)
		ms = printMetrics(out, cfg.workload, perLayer(b, un, bySpan, byGroup), perLayerDefs)
		printDecomposition(out, b, un, tr, byGroup)
		dir := filepath.Join(cfg.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := rp.writeSpans(filepath.Join(dir, cfg.workload+".csv")); err != nil {
			return nil, err
		}
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "failed op:", e)
	}
	res = &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: ms}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// measurement is what one pass over a workload's phases observed.
type measurement struct {
	main     []*worker
	mainTime time.Duration // the timed phase: the sum of its windows
	winTimes []time.Duration
	batch    []*worker
	write    []*worker
	saves    []time.Duration
	fs       fsStats // counters over the write traffic
	accuracy *worker
	allocs   uint64             // bytes allocated during the timed phase
	gcs      uint32             // GC cycles completed during the timed phase
	health   map[string]float64 // /healthz counter deltas over the timed phase
	heap     uint64
}

// measure runs the workload's phases (README.md, "Phases"): the timed
// phase in windows, and after each window a slice of the probes that
// supply the op kinds the timed phase does not send, so every metric
// samples the whole run; then the accuracy sample. In the traced pass
// the ops each window and probe slice logged are replayed after it.
func (b *bench) measure() (*measurement, error) {
	m := &measurement{health: map[string]float64{}}
	in := b.in
	m.main = b.workers(2, true)
	switch b.w {
	case "read-hot", "write-mix":
		m.batch = b.workers(1, false)
	case "read-cold":
		m.batch = m.main
	}
	switch b.w {
	case "read-hot", "read-cold":
		m.write = b.workers(1, false)
	case "write-mix":
		m.write = m.main[:1]
	}
	fs0 := b.fs.snapshot()
	length := time.Duration(b.seconds * float64(time.Second))
	winLen := length / windows
	// Read workloads run ten windows of equal length. In write-mix a
	// window is one write cycle, with the reader running until the
	// writer completes it, so no cycle is cut short and every cycle
	// meets the same reader; windows continue until --seconds are used.
	more := func(win int) bool { return win < windows }
	if b.w == "write-mix" {
		more = func(win int) bool { return win == 0 || m.mainTime < length }
	}
	for win := 0; more(win); win++ {
		runtime.GC()
		h0, err := b.healthz()
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		deadline := time.Now().Add(winLen)
		stop := func() bool { return !time.Now().Before(deadline) }
		for _, w := range m.main {
			w.cur = win
		}
		var el time.Duration
		switch b.w {
		case "read-hot":
			get := func(w *worker) {
				for !stop() {
					w.checkedGet(in.hot[w.rng.Intn(len(in.hot))])
				}
			}
			el = b.phase(m.main, get, get)
		case "read-cold":
			el = b.phase(m.main,
				func(w *worker) {
					for !stop() {
						w.coldGet()
					}
				},
				func(w *worker) {
					for !stop() {
						w.coldBatch()
					}
				})
		case "write-mix":
			var writing atomic.Bool
			writing.Store(true)
			el = b.phase(m.main,
				func(w *worker) {
					defer writing.Store(false)
					w.cycle()
				},
				func(w *worker) {
					for writing.Load() {
						wp := in.writes[w.rng.Intn(len(in.writes))]
						w.mixGet(wp, w.rng.Intn(len(wp.reader)))
					}
				})
		}
		runtime.ReadMemStats(&m1)
		h1, err := b.healthz()
		if err != nil {
			return nil, err
		}
		m.winTimes = append(m.winTimes, el)
		m.mainTime += el
		m.allocs += m1.TotalAlloc - m0.TotalAlloc
		m.gcs += m1.NumGC - m0.NumGC
		for k, v := range h1 {
			m.health[k] += v - h0[k]
		}

		// This window's slice of the probes. The read workloads run a
		// write cycle after every other window: a cycle takes about a
		// second, and five cycles are enough for the write figures.
		cycle := win%2 == 1
		switch b.w {
		case "read-hot":
			b.batchProbe(m.batch[0], win, func(w *worker) { w.hotBatch() })
			if cycle {
				m.write[0].cycle()
				// The cycle's publications orphaned the result cache;
				// refill it so the next window again measures hits only.
				warm := b.workers(1, false)[0]
				for _, p := range in.hot {
					warm.checkedGet(p)
				}
			}
		case "read-cold":
			b.verifyCold(m.main)
			if cycle {
				m.write[0].cycle()
			}
		case "write-mix":
			b.batchProbe(m.batch[0], win, func(w *worker) { w.mixBatch() })
		}
		b.flush()
	}
	m.saves = b.fs.savesSince(fs0)
	fs1 := b.fs.snapshot()
	m.fs = fsStats{saves: fs1.saves - fs0.saves, bytes: fs1.bytes - fs0.bytes, syncs: fs1.syncs - fs0.syncs}
	b.dropCold(m.main)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = ms.HeapAlloc

	m.accuracy = b.workers(1, false)[0]
	m.accuracy.accuracy()
	b.flush()
	return m, nil
}

// flush replays the ops the traced pass has logged so far.
func (b *bench) flush() {
	if b.rp != nil {
		b.rp.flush()
	}
}

// batchProbe sends batchProbeN batches as repetition win of the batch
// probe.
func (b *bench) batchProbe(w *worker, win int, send func(*worker)) {
	w.cur = win
	for i := 0; i < batchProbeN; i++ {
		send(w)
	}
}

// phase runs loops[i] on ws[i] concurrently and returns the wall time.
func (b *bench) phase(ws []*worker, loops ...func(*worker)) time.Duration {
	t0 := time.Now()
	done := make(chan struct{}, len(loops))
	for i, f := range loops {
		go func(w *worker, f func(*worker)) {
			defer func() { done <- struct{}{} }()
			f(w)
		}(ws[i], f)
	}
	for range loops {
		<-done
	}
	return time.Since(t0)
}

// samples merges the latency samples of one kind, in nanoseconds,
// sorted: of window win, or of all windows when win is -1.
func samples(ws []*worker, kind string, win int) []float64 {
	var xs []float64
	for _, w := range ws {
		for j, s := range w.lat[kind] {
			if win < 0 || j == win {
				for _, v := range s.xs {
					xs = append(xs, float64(v))
				}
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// perWindow is the median over n windows of f(window).
func perWindow(n int, f func(win int) float64) float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = f(i)
	}
	return median(vs)
}

// quantile is the nearest-rank q-quantile of sorted xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// printMetrics prints every metric of defs and returns the gated ones
// for the JSON result.
func printMetrics(out io.Writer, w string, ms map[string]metric, defs []metricDef) map[string]metric {
	gated := map[string]metric{}
	for _, d := range defs {
		note := ""
		if d.ungated {
			note = " (not gated)"
		} else {
			gated[d.name] = ms[d.name]
		}
		fmt.Fprintf(out, "%-10s %-32s %16.6f %s%s\n", w, d.name, ms[d.name].Value, d.unit, note)
	}
	return gated
}
