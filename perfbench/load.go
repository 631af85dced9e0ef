package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xpathest/internal/server"
	"xpathest/internal/summaryio"
	"xpathest/internal/summarystore"
)

// Op kinds; each has its own latency distribution.
const (
	kindEstimate  = "estimate"
	kindBatch     = "batch"
	kindSummarize = "summarize"
	kindDelta     = "delta"
)

// Phase shapes (see README.md, "Phases"). A read metric is reported as
// the median over windows of its value in each window, so one
// disturbed window of a shared machine does not move it.
const (
	windows     = 10   // windows of a read workload's timed phase
	batchProbeN = 1000 // batches per probe slice: p99 has ten samples beyond it
)

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// faults are deliberate wrong answers for the self-test: the op with
// the given sequence number (counted per bench from 1; 0 = off) gets
// one flipped bit in its expected value, or is sent to a route that
// answers 404.
type faults struct {
	flipOp, badStatusOp int64
}

// bench is one run: its inputs, the server under test and the failure
// accounting.
type bench struct {
	w       string
	seed    int64
	seconds float64
	work    string // per-run directory under .bench_build
	faults  faults

	in       *inputs
	storeDir string
	fs       *countFS
	srv      *server.Server
	base     string
	hc       *http.Client
	rp       *replay // non-nil while tracing

	setups []time.Duration
	phases int64        // workers() calls, for client seeds
	seq    atomic.Int64 // ops sent, for faults

	coldMemo map[uint32]uint64 // read-cold oracle values by population index

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string // guarded by errMu: the first few failures
}

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
	b.errMu.Unlock()
}

// setup is one set-up round: generate the inputs from the seed, fill
// a fresh summary store, start a server over it (the restart path) and
// warm it up. It is timed whole.
func (b *bench) setup(ctx context.Context, round int) error {
	t0 := time.Now()
	b.coldMemo = nil
	in, err := genInputs(b.w, b.seed)
	if err != nil {
		return err
	}
	b.in = in
	dir := filepath.Join(b.work, "store-"+strconv.Itoa(round))
	b.storeDir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fill, err := summarystore.Open(summarystore.Config{FS: summarystore.Dir(dir)})
	if err != nil {
		return err
	}
	for _, d := range in.ds {
		if err := fill.Save(ctx, d.name+summarystore.Suffix, d.sum); err != nil {
			return err
		}
	}
	b.fs = newCountFS(summarystore.Dir(dir))
	b.srv, err = server.New(ctx, server.Config{
		Addr:    "127.0.0.1:0",
		StoreFS: b.fs,
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	if err := b.srv.Start(); err != nil {
		return err
	}
	b.base = "http://" + b.srv.Addr()
	b.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	b.warmup()
	b.setups = append(b.setups, time.Since(t0))
	return nil
}

// teardown stops the server, if one runs, and removes its store.
func (b *bench) teardown() error {
	if b.srv == nil {
		return nil
	}
	if b.hc != nil {
		b.hc.CloseIdleConnections()
	}
	err := b.srv.Shutdown()
	if rerr := os.RemoveAll(b.storeDir); rerr != nil && err == nil {
		err = rerr
	}
	b.srv, b.hc = nil, nil
	return err
}

// warmup sends each request of read-hot and write-mix once, and a
// sample of read-cold's, so the timed phase starts on warm caches;
// write-mix also creates its w-* names. Its ops are checked like all
// others.
func (b *bench) warmup() {
	ws := b.workers(1, false)
	w := ws[0]
	switch b.w {
	case "read-hot":
		for _, p := range b.in.hot {
			w.checkedGet(p)
		}
	case "read-cold":
		for i := 0; i < 256; i++ {
			w.coldGet()
		}
		for i := 0; i < 8; i++ {
			w.coldBatch()
		}
		b.verifyCold(ws)
	case "write-mix":
		for _, wp := range b.in.writes {
			w.summarize(wp)
			for qi := range wp.reader {
				w.mixGet(wp, qi)
			}
		}
	}
}

// sampler keeps up to its capacity of latency samples, then a uniform
// reservoir, so its memory does not grow with throughput (heap_mb
// would otherwise reward a slower server).
type sampler struct {
	xs  []uint32 // nanoseconds
	n   int64
	rng *rand.Rand
}

func newSampler(capacity int, seed int64) *sampler {
	return &sampler{xs: make([]uint32, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (s *sampler) add(d time.Duration) {
	v := uint32(math.MaxUint32)
	if d < time.Duration(math.MaxUint32) {
		v = uint32(d)
	}
	s.n++
	if len(s.xs) < cap(s.xs) {
		s.xs = append(s.xs, v)
		return
	}
	if j := s.rng.Int63n(s.n); j < int64(len(s.xs)) {
		s.xs[j] = v
	}
}

// coldRec is one read-cold answer, verified after its window.
type coldRec struct {
	op   int64 // sequence number of the op that returned it
	idx  uint32
	bits uint64
}

// worker is one closed-loop client: it sends a request, waits for the
// reply, checks it, and only then sends the next.
type worker struct {
	b   *bench
	rng *rand.Rand
	lat map[string][]*sampler // per kind, per window
	cur int                   // window the next op counts in
	big bool

	queries, writes int64
	winQueries      []int64
	cycles          []cycleStat // complete write cycles
	open            cycleStat   // the write cycle in progress
	relErrSum       float64
	relErrN         int
	cold            []coldRec
	seq             int64 // sequence number of the last op sent
}

// workers makes n clients for one phase. big sizes their estimate
// latency buffers for the timed phase.
func (b *bench) workers(n int, big bool) []*worker {
	ws := make([]*worker, n)
	b.phases++
	for i := range ws {
		seed := b.seed*1000003 + b.phases*7 + int64(i)
		ws[i] = &worker{b: b, rng: rand.New(rand.NewSource(seed)), lat: map[string][]*sampler{}, big: big}
	}
	return ws
}

// window returns the latency buffer of kind for the current window,
// creating the window's buffers on first use.
func (w *worker) window(kind string) *sampler {
	for len(w.winQueries) <= w.cur {
		w.winQueries = append(w.winQueries, 0)
		est := 4096
		if w.big {
			est = 32768
		}
		capacity := map[string]int{kindEstimate: est, kindBatch: 2048, kindSummarize: 512, kindDelta: 2048}
		for k, c := range capacity {
			w.lat[k] = append(w.lat[k], newSampler(c, int64(len(w.lat[k]))))
		}
	}
	return w.lat[kind][w.cur]
}

// send runs one HTTP request and times its round trip. It returns the
// body of a 200 response; anything else is a failed op.
func (w *worker) send(kind, method, u string, body []byte) ([]byte, time.Duration, bool) {
	b := w.b
	lat := w.window(kind)
	b.attempted.Add(1)
	w.seq = b.seq.Add(1)
	if w.seq == b.faults.badStatusOp {
		u = b.base + "/no-such-route"
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		b.fail("%s: %v", kind, err)
		return nil, 0, false
	}
	t0 := time.Now()
	resp, err := b.hc.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rt := time.Since(t0)
	lat.add(rt)
	if err != nil {
		b.fail("%s: %v", kind, err)
		return nil, rt, false
	}
	if resp.StatusCode != http.StatusOK {
		b.fail("%s: status %d: %.200s", kind, resp.StatusCode, out)
		return nil, rt, false
	}
	return out, rt, true
}

// want returns the expected bits, flipped once if the self-test asked.
func (w *worker) want(bits uint64) uint64 {
	if w.seq == w.b.faults.flipOp {
		return bits ^ 1
	}
	return bits
}

// get sends GET /estimate and returns the answer's bits.
func (w *worker) get(name string, q query) (uint64, time.Duration, bool) {
	u := w.b.base + "/estimate?summary=" + url.QueryEscape(name) + "&q=" + url.QueryEscape(q.text)
	body, rt, ok := w.send(kindEstimate, http.MethodGet, u, nil)
	w.queries++
	w.winQueries[w.cur]++
	if !ok {
		return 0, rt, false
	}
	var r struct {
		Estimate float64 `json:"estimate"`
		Fallback bool    `json:"fallback"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Fallback {
		w.b.fail("estimate %s %q: fallback or bad body %.200s", name, q.text, body)
		return 0, rt, false
	}
	return f64bits(r.Estimate), rt, true
}

// batch sends POST /estimate/batch and returns each slot's bits.
func (w *worker) batch(name string, qs []query) ([]uint64, time.Duration, bool) {
	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.text
	}
	req, _ := json.Marshal(map[string]any{"summary": name, "queries": texts})
	body, rt, ok := w.send(kindBatch, http.MethodPost, w.b.base+"/estimate/batch", req)
	w.queries += int64(len(qs))
	w.winQueries[w.cur] += int64(len(qs))
	if !ok {
		return nil, rt, false
	}
	var r struct {
		Results []struct {
			Estimate float64 `json:"estimate"`
			Fallback bool    `json:"fallback"`
			Error    string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil || len(r.Results) != len(qs) {
		w.b.fail("batch %s: bad body %.200s", name, body)
		return nil, rt, false
	}
	out := make([]uint64, len(qs))
	for i, s := range r.Results {
		if s.Fallback || s.Error != "" {
			w.b.fail("batch %s slot %q: fallback or error %q", name, qs[i].text, s.Error)
			return nil, rt, false
		}
		out[i] = f64bits(s.Estimate)
	}
	return out, rt, true
}

// checkedGet sends one precomputed pair and checks the answer.
func (w *worker) checkedGet(p pair) {
	name := w.b.in.ds[p.ds].name
	got, rt, ok := w.get(name, p.q)
	if ok && got != w.want(p.want) {
		w.b.fail("estimate %s %q: got %x want %x", name, p.q.text, got, p.want)
	}
	w.replayRead(kindEstimate, rt, name, []query{p.q})
}

// coldGet sends one uniformly drawn read-cold query; its answer is
// verified after the phase.
func (w *worker) coldGet() {
	i := w.rng.Intn(len(w.b.in.coldIndex))
	p := w.b.in.coldIndex[i]
	name := w.b.in.ds[p.ds].name
	got, rt, ok := w.get(name, p.q)
	if ok {
		w.logCold(uint32(i), got)
	}
	w.replayRead(kindEstimate, rt, name, []query{p.q})
}

// coldBatch sends one read-cold batch: one summary, uniform draws from
// its population, and batchRepeats slots that repeat an earlier slot.
func (w *worker) coldBatch() {
	in := w.b.in
	first := w.rng.Intn(len(in.coldIndex))
	ds := in.coldIndex[first].ds
	off := 0
	for i := 0; i < ds; i++ {
		off += len(in.cold[i])
	}
	idx := make([]int, batchSlots)
	idx[0] = first
	for k := 1; k < batchSlots; k++ {
		if k < batchSlots-batchRepeats {
			idx[k] = off + w.rng.Intn(len(in.cold[ds]))
		} else {
			idx[k] = idx[w.rng.Intn(batchSlots-batchRepeats)]
		}
	}
	qs := make([]query, batchSlots)
	for k, i := range idx {
		qs[k] = in.coldIndex[i].q
	}
	name := in.ds[ds].name
	got, rt, ok := w.batch(name, qs)
	if ok {
		for k, i := range idx {
			w.logCold(uint32(i), got[k])
		}
	}
	w.replayRead(kindBatch, rt, name, qs)
}

func (w *worker) logCold(i uint32, bits uint64) {
	w.cold = append(w.cold, coldRec{op: w.seq, idx: i, bits: bits})
}

// verifyCold checks every logged read-cold answer against the oracle
// and empties the logs. Each distinct query is estimated once per run,
// on two goroutines; the memo is dropped by dropCold.
func (b *bench) verifyCold(ws []*worker) {
	if b.coldMemo == nil {
		b.coldMemo = map[uint32]uint64{}
	}
	var todo []uint32
	for _, w := range ws {
		for _, r := range w.cold {
			if _, ok := b.coldMemo[r.idx]; !ok {
				b.coldMemo[r.idx] = 0
				todo = append(todo, r.idx)
			}
		}
	}
	wants := make([]uint64, len(todo))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(todo); k += 2 {
				p := b.in.coldIndex[todo[k]]
				v, err := expect(b.in.ds[p.ds].sum, p.q.text)
				if err != nil {
					b.fail("read-cold oracle: %v", err)
				}
				wants[k] = v
			}
		}(g)
	}
	wg.Wait()
	for k, idx := range todo {
		b.coldMemo[idx] = wants[k]
	}
	for _, w := range ws {
		failedOp := int64(-1) // a batch fails once, however many slots are wrong
		for _, r := range w.cold {
			want := b.coldMemo[r.idx]
			if r.op == b.faults.flipOp {
				want ^= 1
			}
			if r.bits != want && r.op != failedOp {
				failedOp = r.op
				p := b.in.coldIndex[r.idx]
				b.fail("estimate %s %q: got %x want %x", b.in.ds[p.ds].name, p.q.text, r.bits, want)
			}
		}
		w.cold = w.cold[:0]
	}
}

// dropCold releases the verification state, so heap_mb counts the
// server and the inputs, not how many answers were checked.
func (b *bench) dropCold(ws []*worker) {
	b.coldMemo = nil
	for _, w := range ws {
		w.cold = nil
	}
}

// summarize posts the document of wp, checks the element count, and
// checks that the summary the server stored is byte for byte the
// oracle's Summary.Save; its size is summary_bytes.
func (w *worker) summarize(wp *writePlan) {
	wp.log.sending(0)
	body, rt, ok := w.send(kindSummarize, http.MethodPost, w.b.base+"/summarize?name="+url.QueryEscape(wp.name), wp.xml)
	w.writes++
	w.open.xmlBytes += int64(len(wp.xml))
	w.open.summarizeTime += rt
	if ok {
		var r struct {
			Elements int `json:"elements"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Elements != wp.elements {
			w.b.fail("summarize %s: body %.200s, want %d elements", wp.name, body, wp.elements)
		} else {
			w.checkStored(wp)
		}
	}
	wp.log.published(0)
	w.replaySummarize(rt, wp)
}

// checkStored reads back the file the server's store wrote for wp's
// summarize. The writer is the only client writing wp's name, so the
// file is the summarize's until its next /delta.
func (w *worker) checkStored(wp *writePlan) {
	file, err := os.ReadFile(filepath.Join(w.b.storeDir, wp.name+summarystore.Suffix))
	if err == nil {
		var payload []byte
		if payload, err = summaryio.Unseal(file); err == nil {
			if !bytes.Equal(payload, wp.save) {
				err = fmt.Errorf("%d bytes stored, Summary.Save of the oracle is %d bytes and differs", len(payload), len(wp.save))
			}
			wp.stored = len(payload)
		}
	}
	if err != nil {
		w.b.fail("summarize %s: stored summary: %v", wp.name, err)
	}
}

// delta posts script k of wp and checks the route counts and element
// count against the benchmark's own Apply.
func (w *worker) delta(wp *writePlan, k int) {
	sp := wp.scripts[k]
	wp.log.sending(k + 1)
	body, rt, ok := w.send(kindDelta, http.MethodPost, w.b.base+"/delta/"+url.PathEscape(wp.name), sp.wire)
	w.writes++
	w.open.deltas = append(w.open.deltas, float64(rt))
	if ok {
		var r struct {
			Ops        int `json:"ops"`
			FastOps    int `json:"fast_ops"`
			RebuildOps int `json:"rebuild_ops"`
			Elements   int `json:"elements"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Ops != sp.ops || r.FastOps != sp.fast ||
			r.RebuildOps != sp.rebuild || r.Elements != sp.elements {
			w.b.fail("delta %s #%d: body %.200s, want fast %d rebuild %d elements %d", wp.name, k, body, sp.fast, sp.rebuild, sp.elements)
		}
	}
	wp.log.published(k + 1)
	w.replayDelta(rt, wp, k)
}

// cycleStat is what one complete write cycle measured.
type cycleStat struct {
	dur           time.Duration
	ops           int
	deltas        []float64 // round trips, ns
	xmlBytes      int64
	summarizeTime time.Duration
}

// cycle runs one write cycle over every dataset. Every cycle is the
// same op sequence, so per-cycle figures compare like with like.
func (w *worker) cycle() {
	w.open = cycleStat{}
	t0 := time.Now()
	for _, wp := range w.b.in.writes {
		w.summarize(wp)
		for k := range wp.scripts {
			w.delta(wp, k)
		}
		w.open.ops += 1 + len(wp.scripts)
	}
	w.open.dur = time.Since(t0)
	sort.Float64s(w.open.deltas)
	w.cycles = append(w.cycles, w.open)
}

// mixGet sends write-mix reader query qi of wp. The writer may publish
// while the request is in flight, so the answer must equal the oracle
// of one of the states the name could have been in meanwhile.
func (w *worker) mixGet(wp *writePlan, qi int) {
	seen := wp.log.begin()
	got, rt, ok := w.get(wp.name, wp.reader[qi])
	seen = wp.log.end(seen)
	if ok {
		match := false
		for _, s := range seen {
			if got == w.want(wp.states[s][qi]) {
				match = true
			}
		}
		if !match {
			w.b.fail("estimate %s %q: got %x, no state of %v matches", wp.name, wp.reader[qi].text, got, seen)
		}
	}
	w.replayRead(kindEstimate, rt, wp.name, []query{wp.reader[qi]})
}

// mixBatch sends one batch of write-mix reader queries while no writer
// runs, checked against the name's current state.
func (w *worker) mixBatch() {
	wp := w.b.in.writes[w.rng.Intn(len(w.b.in.writes))]
	idx := drawSlots(w.rng, len(wp.reader))
	qs := make([]query, len(idx))
	for k, i := range idx {
		qs[k] = wp.reader[i]
	}
	state := wp.log.current()
	got, rt, ok := w.batch(wp.name, qs)
	if ok {
		for k, i := range idx {
			if got[k] != w.want(wp.states[state][i]) {
				w.b.fail("batch %s %q: got %x want %x", wp.name, qs[k].text, got[k], wp.states[state][i])
				break
			}
		}
	}
	w.replayRead(kindBatch, rt, wp.name, qs)
}

// hotBatch sends one batch drawn from the read-hot pairs of one
// summary.
func (w *worker) hotBatch() {
	ds := w.rng.Intn(len(w.b.in.ds))
	var pool []pair
	for _, p := range w.b.in.hot {
		if p.ds == ds {
			pool = append(pool, p)
		}
	}
	idx := drawSlots(w.rng, len(pool))
	qs := make([]query, len(idx))
	for k, i := range idx {
		qs[k] = pool[i].q
	}
	name := w.b.in.ds[ds].name
	got, rt, ok := w.batch(name, qs)
	if ok {
		for k, i := range idx {
			if got[k] != w.want(pool[i].want) {
				w.b.fail("batch %s %q: got %x want %x", name, qs[k].text, got[k], pool[i].want)
				break
			}
		}
	}
	w.replayRead(kindBatch, rt, name, qs)
}

// drawSlots draws batch slots from a pool of n: uniform draws, then
// batchRepeats slots repeating an earlier slot.
func drawSlots(rng *rand.Rand, n int) []int {
	idx := make([]int, batchSlots)
	for k := range idx {
		if k < batchSlots-batchRepeats {
			idx[k] = rng.Intn(n)
		} else {
			idx[k] = idx[rng.Intn(batchSlots-batchRepeats)]
		}
	}
	return idx
}

// accuracy sends the accuracy sample and accumulates the §7 relative
// error |estimate − exact| / exact of the HTTP answers.
func (w *worker) accuracy() {
	for _, a := range w.b.in.accuracy {
		name := w.b.in.ds[a.ds].name
		got, rt, ok := w.get(name, a.q)
		if ok {
			if got != w.want(a.want) {
				w.b.fail("estimate %s %q: got %x want %x", name, a.q.text, got, a.want)
			}
			w.relErrSum += math.Abs(math.Float64frombits(got)-float64(a.exact)) / float64(a.exact)
			w.relErrN++
		}
		w.replayRead(kindEstimate, rt, name, []query{a.q})
	}
}

// stateLog tracks which states of its write cycle a w-* name can be
// in: the states the server has acknowledged, in order, and the one
// being written. A reader that saw index lo before its request and hi
// after it accepts any state in between, plus the in-flight one.
type stateLog struct {
	mu      sync.Mutex
	acked   []int // guarded by mu
	pending int   // guarded by mu; -1 when no write is in flight
}

func (l *stateLog) sending(s int) {
	l.mu.Lock()
	l.pending = s
	l.mu.Unlock()
}

func (l *stateLog) published(s int) {
	l.mu.Lock()
	l.acked = append(l.acked, s)
	l.pending = -1
	l.mu.Unlock()
}

// begin returns the states the name can be in now, with the index to
// pass to end.
func (l *stateLog) begin() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := len(l.acked)
	seen := []int{lo, l.acked[lo-1]}
	if l.pending >= 0 {
		seen = append(seen, l.pending)
	}
	return seen
}

// end adds the states published since begin and the in-flight one; it
// drops the index begin stored in seen[0].
func (l *stateLog) end(seen []int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen = append(seen, l.acked[seen[0]:]...)
	if l.pending >= 0 {
		seen = append(seen, l.pending)
	}
	return seen[1:]
}

func (l *stateLog) current() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked[len(l.acked)-1]
}

// healthz returns the server's counters.
func (b *bench) healthz() (map[string]float64, error) {
	resp, err := b.hc.Get(b.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
