package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit. An ungated metric
// is printed for people but left out of the JSON result, so no bound
// applies to it (README.md says why).
type metricDef struct {
	name, unit string
	ungated    bool
}

// endToEndDefs are the metrics a user of the server sees, printed with
// --trace 0. BENCHMARK.json lists the gated ones with their bounds.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "queries_per_s", unit: "1/s"},
	{name: "estimate.p50_us", unit: "us"},
	{name: "estimate.p99_us", unit: "us", ungated: true},
	{name: "batch.p50_us", unit: "us"},
	{name: "batch.p99_us", unit: "us", ungated: true},
	{name: "writes_per_s", unit: "1/s"},
	{name: "delta.p50_ms", unit: "ms", ungated: true},
	{name: "delta.p90_ms", unit: "ms", ungated: true},
	{name: "summarize.mb_per_s", unit: "MB/s"},
	{name: "heap_mb", unit: "MB"},
	{name: "summary_bytes", unit: "B"},
	{name: "rel_error", unit: "ratio"},
}

// perLayerDefs are the per-layer metrics of the traced run, printed
// with --trace 1. README.md says which end-to-end metric each should
// move.
var perLayerDefs = []metricDef{
	{name: "server.self_us", unit: "us"},
	{name: "server.plan_cache.hit_ratio", unit: "ratio"},
	{name: "server.dedup_shared_per_kq", unit: "count/kq"},
	{name: "server.shed", unit: "count"},
	{name: "rescache.hit_ratio", unit: "ratio"},
	{name: "rescache.evictions_per_kq", unit: "count/kq"},
	{name: "rescache.get_us", unit: "us"},
	{name: "xpath.compile_us", unit: "us"},
	{name: "xpath.tree_us", unit: "us"},
	{name: "core.join_us", unit: "us"},
	{name: "core.estimate_us.simple", unit: "us"},
	{name: "core.estimate_us.branch", unit: "us"},
	{name: "core.estimate_us.order", unit: "us"},
	{name: "core.first_estimate_us", unit: "us"},
	{name: "xmltree.parse_ms", unit: "ms"},
	{name: "pathenc.label_ms", unit: "ms"},
	{name: "stats.collect_ms", unit: "ms"},
	{name: "eval.index_ms", unit: "ms"},
	{name: "pidtree.build_ms", unit: "ms"},
	{name: "histogram.build_p_ms", unit: "ms"},
	{name: "histogram.build_o_ms", unit: "ms"},
	{name: "summaryio.encode_ms", unit: "ms"},
	{name: "summaryio.decode_ms", unit: "ms"},
	{name: "summarystore.save_ms", unit: "ms"},
	{name: "summarystore.bytes_per_write", unit: "B"},
	{name: "summarystore.syncs_per_write", unit: "count"},
	{name: "delta.decode_us", unit: "us"},
	{name: "delta.apply_ms", unit: "ms"},
	{name: "delta.fast_ops", unit: "count"},
	{name: "delta.rebuild_ops", unit: "count"},
	{name: "go.alloc_bytes_per_q", unit: "B"},
	{name: "go.gc_per_kq", unit: "count/kq"},
}

// spanMetrics maps per-layer metrics to the span whose median self
// time they report.
var spanMetrics = map[string]string{
	"rescache.get_us":         "rescache.get",
	"xpath.compile_us":        "xpath.compile",
	"xpath.tree_us":           "xpath.tree",
	"core.join_us":            "core.join",
	"core.estimate_us.simple": "core.estimate.simple",
	"core.estimate_us.branch": "core.estimate.branch",
	"core.estimate_us.order":  "core.estimate.order",
	"core.first_estimate_us":  "core.first_estimate",
	"xmltree.parse_ms":        "xmltree.parse",
	"pathenc.label_ms":        "pathenc.label",
	"stats.collect_ms":        "stats.collect",
	"eval.index_ms":           "eval.index",
	"pidtree.build_ms":        "pidtree.build",
	"histogram.build_p_ms":    "histogram.build_p",
	"histogram.build_o_ms":    "histogram.build_o",
	"summaryio.encode_ms":     "summaryio.encode",
	"summaryio.decode_ms":     "summaryio.decode",
	"delta.decode_us":         "delta.decode",
	"delta.apply_ms":          "delta.apply",
}

var unitScale = map[string]float64{"us": 1e3, "ms": 1e6, "s": 1e9}

func sum(ws []*worker, f func(*worker) int64) int64 {
	var n int64
	for _, w := range ws {
		n += f(w)
	}
	return n
}

// endToEnd computes the --trace 0 metrics of one measurement.
func endToEnd(b *bench, m *measurement) map[string]metric {
	ms := map[string]metric{}
	set := func(name string, v float64) {
		for _, d := range endToEndDefs {
			if d.name == name {
				ms[name] = metric{Value: v, Unit: d.unit}
			}
		}
	}
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	set("setup_s", median(setups))
	set("queries_per_s", perWindow(len(m.winTimes), func(i int) float64 {
		return float64(sum(m.main, func(w *worker) int64 { return w.winQueries[i] })) / m.winTimes[i].Seconds()
	}))
	lat := func(ws []*worker, kind string, q float64) float64 {
		return perWindow(len(ws[0].winQueries), func(i int) float64 { return quantile(samples(ws, kind, i), q) })
	}
	set("estimate.p50_us", lat(m.main, kindEstimate, 0.50)/1e3)
	set("estimate.p99_us", lat(m.main, kindEstimate, 0.99)/1e3)
	set("batch.p50_us", lat(m.batch, kindBatch, 0.50)/1e3)
	set("batch.p99_us", lat(m.batch, kindBatch, 0.99)/1e3)
	// Write figures come from complete write cycles: the rates pool
	// them (requests, or XML bytes, over the time they took), the delta
	// percentiles are medians over cycles.
	var cycles []cycleStat
	for _, w := range m.write {
		cycles = append(cycles, w.cycles...)
	}
	var all cycleStat
	for _, c := range cycles {
		all.ops += c.ops
		all.dur += c.dur
		all.xmlBytes += c.xmlBytes
		all.summarizeTime += c.summarizeTime
	}
	set("writes_per_s", float64(all.ops)/all.dur.Seconds())
	set("summarize.mb_per_s", float64(all.xmlBytes)/1e6/all.summarizeTime.Seconds())
	perCycle := func(q float64) float64 {
		vs := make([]float64, len(cycles))
		for i, c := range cycles {
			vs[i] = quantile(c.deltas, q)
		}
		return median(vs)
	}
	set("delta.p50_ms", perCycle(0.50)/1e6)
	set("delta.p90_ms", perCycle(0.90)/1e6)
	set("heap_mb", float64(m.heap)/1e6)
	stored := 0
	for _, wp := range b.in.writes {
		stored += wp.stored
	}
	set("summary_bytes", float64(stored))
	acc := m.accuracy
	set("rel_error", acc.relErrSum/float64(acc.relErrN))
	return ms
}

// opView is one traced op: its round trip, its replay, and the self
// time of each layer inside the replay.
type opView struct {
	rt, replay time.Duration
	layers     map[string]time.Duration // by module
}

// traced collects each span name's self times and each replayed op's
// decomposition, by opRec.group.
func traced(rp *replay) (bySpan map[string][]float64, byGroup map[string][]opView) {
	bySpan = map[string][]float64{}
	byGroup = map[string][]opView{}
	t := rp.t
	self := selfTimes(t)
	rootOf := make([]int32, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = int32(i)
		if s.parent >= 0 {
			rootOf[i] = rootOf[s.parent]
		}
		if s.name != "replay" {
			bySpan[s.name] = append(bySpan[s.name], float64(self[i]))
		}
	}
	for _, o := range rp.ops {
		r := t.spans[o.root]
		v := opView{rt: o.rt, replay: r.end - r.start, layers: map[string]time.Duration{}}
		for i := int(o.root) + 1; i < len(t.spans) && rootOf[i] == o.root; i++ {
			v.layers[module(t.spans[i].name)] += self[i]
		}
		byGroup[o.group()] = append(byGroup[o.group()], v)
	}
	return bySpan, byGroup
}

// perLayer computes the --trace 1 metrics: span medians from the
// traced measurement, counters from the untraced one.
func perLayer(b *bench, un *measurement, bySpan map[string][]float64, byGroup map[string][]opView) map[string]metric {
	ms := map[string]metric{}
	unit := map[string]string{}
	for _, d := range perLayerDefs {
		unit[d.name] = d.unit
	}
	set := func(name string, v float64) { ms[name] = metric{Value: v, Unit: unit[name]} }

	for name, span := range spanMetrics {
		xs := bySpan[span]
		if len(xs) == 0 {
			b.fail("traced run recorded no %s span", span)
		}
		set(name, median(xs)/unitScale[unit[name]])
	}
	var self []float64
	for _, v := range byGroup[kindEstimate] {
		self = append(self, float64(v.rt-v.replay))
	}
	set("server.self_us", median(self)/1e3)

	d := func(k string) float64 { return un.health[k] }
	queries := float64(sum(un.main, func(w *worker) int64 { return w.queries }))
	set("server.plan_cache.hit_ratio", ratio(d("plan_cache_hits"), d("plan_cache_hits")+d("plan_cache_misses")))
	set("server.dedup_shared_per_kq", 1000*d("dedup_shared")/queries)
	set("server.shed", d("requests_shed"))
	if d("requests_shed") != 0 {
		b.fail("server shed %v requests", d("requests_shed"))
	}
	set("rescache.hit_ratio", ratio(d("result_cache_hits"), d("result_cache_hits")+d("result_cache_misses")))
	set("rescache.evictions_per_kq", 1000*d("result_cache_evictions")/queries)

	saves := make([]float64, len(un.saves))
	for i, s := range un.saves {
		saves[i] = float64(s)
	}
	set("summarystore.save_ms", median(saves)/1e6)
	set("summarystore.bytes_per_write", ratio(float64(un.fs.bytes), float64(un.fs.saves)))
	set("summarystore.syncs_per_write", ratio(float64(un.fs.syncs), float64(un.fs.saves)))

	var fast, rebuild int
	for _, wp := range b.in.writes {
		f, r := wp.routeCounts()
		fast += f
		rebuild += r
	}
	set("delta.fast_ops", float64(fast))
	set("delta.rebuild_ops", float64(rebuild))

	set("go.alloc_bytes_per_q", float64(un.allocs)/queries)
	set("go.gc_per_kq", 1000*float64(un.gcs)/queries)
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printDecomposition prints, for each op kind, the end-to-end medians
// of the untraced and the traced pass and their gap, the tracing
// overhead; then, for each group of replayed ops, each layer's median
// self time next to the group's end-to-end median, server being the
// round trip minus its replay.
//
// For the workload's GET /estimate ops, the op server.self_us is
// defined on, it also prints the remainder: their end-to-end median
// minus the sum of those layer medians. The traced pass's round trips
// are the ones decomposed (the replay runs after each window, so no
// span is taken during a request). A negative remainder means the
// layer figures claim more time than the requests took, and fails the
// run.
func printDecomposition(out io.Writer, b *bench, un, tr *measurement, byGroup map[string][]opView) {
	for _, k := range []struct {
		kind   string
		un, tr []*worker
	}{
		{kindEstimate, un.main, tr.main},
		{kindBatch, un.batch, tr.batch},
		{kindSummarize, un.write, tr.write},
		{kindDelta, un.write, tr.write},
	} {
		u, t := quantile(samples(k.un, k.kind, -1), 0.5), quantile(samples(k.tr, k.kind, -1), 0.5)
		fmt.Fprintf(out, "trace %s: end-to-end median untraced %.1f us, traced %.1f us (tracing overhead %+.1f%%)\n",
			k.kind, u/1e3, t/1e3, 100*(t/u-1))
	}
	qps := func(m *measurement) float64 {
		return float64(sum(m.main, func(w *worker) int64 { return w.queries })) / m.mainTime.Seconds()
	}
	fmt.Fprintf(out, "trace queries_per_s: untraced %.0f, traced %.0f (tracing overhead %+.1f%%)\n",
		qps(un), qps(tr), 100*(qps(tr)/qps(un)-1))

	groups := make([]string, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		ops := byGroup[g]
		var rt, server []float64
		layers := map[string][]float64{}
		for _, v := range ops {
			rt = append(rt, float64(v.rt))
			server = append(server, float64(v.rt-v.replay))
			for m := range v.layers {
				layers[m] = nil
			}
		}
		names := make([]string, 0, len(layers))
		for m := range layers {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, v := range ops {
			for _, m := range names {
				layers[m] = append(layers[m], float64(v.layers[m]))
			}
		}
		e2e := median(rt)
		fmt.Fprintf(out, "trace %s: %d ops, end-to-end median %.1f us\n", g, len(ops), e2e/1e3)
		fmt.Fprintf(out, "  %-14s %14s\n", "layer", "median_us")
		total := median(server)
		fmt.Fprintf(out, "  %-14s %14.1f\n", "server", total/1e3)
		for _, m := range names {
			fmt.Fprintf(out, "  %-14s %14.1f\n", m, median(layers[m])/1e3)
			total += median(layers[m])
		}
		if g != kindEstimate {
			continue
		}
		rem := e2e - total
		fmt.Fprintf(out, "  %-14s %14.1f   (end-to-end %.1f - layers %.1f)\n", "remainder", rem/1e3, e2e/1e3, total/1e3)
		if rem < 0 {
			b.fail("trace %s: remainder %.1f us is negative: the layers' medians sum to %.1f us, the end-to-end median is %.1f us",
				g, rem/1e3, total/1e3, e2e/1e3)
		}
	}
}
