package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"xpathest"
	"xpathest/internal/core"
	"xpathest/internal/eval"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/pidtree"
	"xpathest/internal/stats"
	"xpathest/internal/summaryio"
	"xpathest/internal/summarystore"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// span is one timed call into a layer. Spans of one op share its id,
// the op's sequence number (0 for the replay's own set-up); parent
// indexes the enclosing span (-1 for none).
type span struct {
	name       string
	op         int64
	parent     int32
	start, end time.Duration // since the replay's epoch
}

// tracer holds the replay's spans, in memory until the run ends.
type tracer struct {
	epoch time.Time
	op    int64
	spans []span
	stack []int32
}

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].end = time.Since(t.epoch)
}

// pendingOp is an op of the traced pass waiting for its replay.
type pendingOp struct {
	seq        int64
	kind, name string
	rt         time.Duration
	run        func(rp *replay, t *tracer) int32 // returns the root span, or -1
}

// opRec ties one replayed HTTP op to its replay: the round trip and
// the index of the replay's root span.
type opRec struct {
	kind, name string
	rt         time.Duration
	root       int32
}

// group is what the decomposition splits ops by: reads by kind, writes
// by kind and summary, since a write's layers differ by document.
func (o opRec) group() string {
	if o.kind == kindSummarize || o.kind == kindDelta {
		return o.kind + " " + o.name
	}
	return o.kind
}

// siblingEvery samples the ops whose query also gets the sibling
// calls xpath.BuildTree and RawJoinEstimate, which the handler does
// not make and which would otherwise double the traced work.
const siblingEvery = 4

// replay re-runs every op the clients send, in-process, through the
// public calls the handler makes, in the handler's order, timing each
// call as a span:
//
//	reads:      CompileQuery → EstimateCache.Get → EstimateQuery → Put
//	/summarize: xmltree.Parse → pathenc.Build → pidtree.Build →
//	            stats.Collect → eval.New → histogram.BuildPSet →
//	            BuildOSet → summarystore.Store.Save
//	/delta:     DecodeEditScript → Summary.Apply → Store.Save
//
// Clients only log their ops (pendingOp); flush replays them after
// each window, outside its timers and with no request in flight, so
// the replay neither slows the round trips it is compared with nor
// competes with the server for the processors. Ops are replayed in the
// order they were sent, on the benchmark's own summaries and
// documents, with its own default-budget EstimateCache, a mirror of
// the server's plan cache and its own publication epoch, so its cache
// hits and misses follow the server's.
type replay struct {
	ctx   context.Context
	t     *tracer
	plans *planMirror
	cache *xpathest.EstimateCache
	gen   uint64 // publications, like the server registry's epoch
	store *summarystore.Store
	cores map[string]*core.Estimator // read summaries
	sums  map[string]*xpathest.Summary
	fresh map[*xpathest.Summary]bool // published, not yet estimated
	ops   []opRec                    // replayed ops of the traced pass
	fail  func(string, ...any)

	mu      sync.Mutex
	pending []pendingOp // guarded by mu
}

// newReplay loads the read summaries the way the server's restart path
// does — from the sealed store image — and builds the write names'
// starting state.
func newReplay(ctx context.Context, b *bench, storeDir string) (*replay, error) {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	store, err := summarystore.Open(summarystore.Config{FS: summarystore.Dir(storeDir)})
	if err != nil {
		return nil, err
	}
	rp := &replay{
		ctx:   ctx,
		t:     &tracer{epoch: time.Now()},
		plans: newPlanMirror(1024),
		cache: xpathest.NewEstimateCache(4 << 20),
		store: store,
		cores: map[string]*core.Estimator{},
		sums:  map[string]*xpathest.Summary{},
		fresh: map[*xpathest.Summary]bool{},
		fail:  b.fail,
	}
	for _, d := range b.in.ds {
		image := summaryio.Seal(d.save)
		rp.t.begin("summaryio.decode")
		sum, err := xpathest.ReadSummaryFileContext(ctx, image, xpathest.DefaultLimits())
		rp.t.end()
		if err != nil {
			return nil, err
		}
		rp.publish(d.name, sum)
		p, err := summaryio.DecodeBytes(d.save, 0)
		if err != nil {
			return nil, err
		}
		rp.cores[d.name] = core.New(pathenc.EstimationLabeling(p.Table, p.Distinct), core.HistogramSource{P: p.P, O: p.O})
	}
	for _, wp := range b.in.writes {
		doc, err := xpathest.ParseDocument(bytes.NewReader(wp.xml))
		if err != nil {
			return nil, err
		}
		rp.publish(wp.name, doc.BuildSummary(opts))
	}
	return rp, nil
}

// log queues one op for replay; clients call it concurrently.
func (rp *replay) log(p pendingOp) {
	rp.mu.Lock()
	rp.pending = append(rp.pending, p)
	rp.mu.Unlock()
}

// flush replays the queued ops in the order they were sent, so the
// replay's caches and write names go through the states the server's
// did, and records each for the decomposition.
func (rp *replay) flush() {
	rp.mu.Lock()
	ops := rp.pending
	rp.pending = nil
	rp.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].seq < ops[j].seq })
	runtime.GC()
	for _, p := range ops {
		rp.t.op = p.seq
		if root := p.run(rp, rp.t); root >= 0 {
			rp.ops = append(rp.ops, opRec{kind: p.kind, name: p.name, rt: p.rt, root: root})
		}
	}
}

func (rp *replay) publish(name string, s *xpathest.Summary) {
	rp.sums[name] = s
	rp.fresh[s] = true
	rp.gen++
}

// current returns the name's summary and whether this is its first
// estimate.
func (rp *replay) current(name string) (*xpathest.Summary, bool) {
	s := rp.sums[name]
	first := rp.fresh[s]
	delete(rp.fresh, s)
	return s, first
}

// read replays one query of a read op.
func (rp *replay) read(t *tracer, name string, q query) {
	cq := rp.plans.get(q.text)
	if cq == nil {
		t.begin("xpath.compile")
		var err error
		cq, err = xpathest.CompileQuery(q.text)
		t.end()
		if err != nil {
			rp.fail("replay compile %q: %v", q.text, err)
			return
		}
		rp.plans.put(q.text, cq)
	}
	epoch := rp.gen
	sum, first := rp.current(name)
	t.begin("rescache.get")
	_, hit := rp.cache.Get(epoch, name, cq)
	t.end()
	if hit {
		return
	}
	estimate := "core.estimate." + q.class
	if first {
		estimate = "core.first_estimate"
	}
	t.begin(estimate)
	v, err := sum.EstimateQuery(cq)
	t.end()
	if err != nil {
		rp.fail("replay estimate %q: %v", q.text, err)
		return
	}
	t.begin("rescache.put")
	rp.cache.Put(epoch, name, cq, v)
	t.end()
}

// siblings times two calls the handler does not make on their own,
// to split the estimate: the query-tree build and the raw path join
// (Eq 1 without the Eq 2–5 corrections) on a core estimator over the
// decoded summary. The join is timed on its second call, once the
// kernel has the tree.
func (rp *replay) siblings(t *tracer, name string, q query) {
	p, err := xpath.Parse(q.text)
	if err != nil {
		rp.fail("replay parse %q: %v", q.text, err)
		return
	}
	t.begin("xpath.tree")
	_, err = xpath.BuildTree(p)
	t.end()
	est := rp.cores[name]
	if err != nil || est == nil {
		return
	}
	if _, err := est.RawJoinEstimate(p); err != nil {
		return
	}
	t.begin("core.join")
	_, _ = est.RawJoinEstimate(p)
	t.end()
}

// replayRead queues a GET (one query) or a batch (its distinct
// queries, in slot order, as the handler's dedup does).
func (w *worker) replayRead(kind string, rt time.Duration, name string, qs []query) {
	if w.b.rp == nil {
		return
	}
	w.b.rp.log(pendingOp{seq: w.seq, kind: kind, name: name, rt: rt, run: func(rp *replay, t *tracer) int32 {
		root := t.begin("replay")
		seen := map[string]bool{}
		for _, q := range qs {
			if !seen[q.text] {
				seen[q.text] = true
				rp.read(t, name, q)
			}
		}
		t.end()
		if t.op%siblingEvery == 0 {
			rp.siblings(t, name, qs[0])
		}
		return root
	}})
}

func (w *worker) replaySummarize(rt time.Duration, wp *writePlan) {
	if w.b.rp == nil {
		return
	}
	w.b.rp.log(pendingOp{seq: w.seq, kind: kindSummarize, name: wp.name, rt: rt, run: func(rp *replay, t *tracer) int32 {
		return rp.summarize(t, wp)
	}})
}

func (w *worker) replayDelta(rt time.Duration, wp *writePlan, k int) {
	if w.b.rp == nil {
		return
	}
	w.b.rp.log(pendingOp{seq: w.seq, kind: kindDelta, name: wp.name, rt: rt, run: func(rp *replay, t *tracer) int32 {
		return rp.delta(t, wp, k)
	}})
}

func (rp *replay) summarize(t *tracer, wp *writePlan) int32 {
	// The document later deltas edit, built outside the spans.
	doc, err := xpathest.ParseDocument(bytes.NewReader(wp.xml))
	if err != nil {
		rp.fail("replay summarize %s: %v", wp.name, err)
		return -1
	}
	sum := doc.BuildSummary(opts)
	// Collect that garbage now, not inside the spans.
	runtime.GC()

	root := t.begin("replay")
	t.begin("xmltree.parse")
	tree, err := xmltree.Parse(bytes.NewReader(wp.xml))
	t.end()
	if err == nil {
		t.begin("pathenc.label")
		var lab *pathenc.Labeling
		lab, err = pathenc.Build(tree)
		t.end()
		if err == nil {
			t.begin("pidtree.build")
			_, err = pidtree.Build(lab.Distinct())
			t.end()
			t.begin("stats.collect")
			tables := stats.Collect(tree, lab)
			t.end()
			t.begin("eval.index")
			eval.New(tree)
			t.end()
			n := lab.NumDistinct()
			t.begin("histogram.build_p")
			ps := histogram.BuildPSet(tables.Freq, n, opts.PVariance)
			t.end()
			t.begin("histogram.build_o")
			histogram.BuildOSet(tables.Order, ps, n, opts.OVariance)
			t.end()
		}
	}
	if err == nil {
		t.begin("summarystore.save")
		err = rp.store.Save(rp.ctx, wp.name+summarystore.Suffix, sum)
		t.end()
	}
	t.end()
	if err != nil {
		rp.fail("replay summarize %s: %v", wp.name, err)
		return -1
	}
	rp.encode(t, sum)
	rp.publish(wp.name, sum)
	return root
}

func (rp *replay) delta(t *tracer, wp *writePlan, k int) int32 {
	var res *xpathest.ApplyResult
	root := t.begin("replay")
	t.begin("delta.decode")
	sc, err := xpathest.DecodeEditScript(bytes.NewReader(wp.scripts[k].wire), 0)
	t.end()
	if err == nil {
		t.begin("delta.apply")
		res, err = rp.sums[wp.name].Apply(sc)
		t.end()
	}
	if err == nil {
		t.begin("summarystore.save")
		err = rp.store.Save(rp.ctx, wp.name+summarystore.Suffix, res.Summary)
		t.end()
	}
	t.end()
	if err != nil {
		rp.fail("replay delta %s #%d: %v", wp.name, k, err)
		return -1
	}
	rp.encode(t, res.Summary)
	rp.publish(wp.name, res.Summary)
	return root
}

// encode times Summary.Save into a buffer: the summaryio encode that
// Store.Save also runs inside its own span.
func (rp *replay) encode(t *tracer, s *xpathest.Summary) {
	var buf bytes.Buffer
	t.begin("summaryio.encode")
	err := s.Save(&buf)
	t.end()
	if err != nil {
		rp.fail("replay encode: %v", err)
	}
}

// planMirror is an LRU of compiled queries with the server plan
// cache's capacity and policy, so the replay compiles when the server
// does.
type planMirror struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // guarded by mu
	items map[string]*list.Element // guarded by mu
}

type planItem struct {
	key string
	q   *xpathest.Query
}

func newPlanMirror(max int) *planMirror {
	return &planMirror{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

func (m *planMirror) get(key string) *xpathest.Query {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*planItem).q
	}
	return nil
}

func (m *planMirror) put(key string, q *xpathest.Query) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[key]; ok {
		return
	}
	m.items[key] = m.ll.PushFront(&planItem{key: key, q: q})
	for m.ll.Len() > m.max {
		last := m.ll.Back()
		m.ll.Remove(last)
		delete(m.items, last.Value.(*planItem).key)
	}
}

// selfTimes returns each span's duration minus the durations of its
// child spans.
func selfTimes(t *tracer) []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeSpans writes every span as CSV: op, span index, parent, name,
// start and end in nanoseconds since the replay's epoch.
func (rp *replay) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op,span,parent,name,start_ns,end_ns")
	for i, s := range rp.t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// module names the layer a span belongs to: the part of its name
// before the first dot, e.g. "core" for "core.estimate.order".
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
