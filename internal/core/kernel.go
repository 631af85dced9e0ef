package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"xpathest/internal/bitset"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
)

// kernel is the summary-resident fast path under the estimator. It
// amortizes, over the lifetime of one (labeling, source) pair, the
// per-query costs the paper's formulas do not account for: fetching a
// tag's (pid, frequency) list, deciding edge compatibility for a
// (pid, pid) pair, and summing a tag's population.
//
// The kernel assumes the source is immutable once the estimator is
// built — the invariant every Source in this repository satisfies
// (exact tables and histograms are both frozen after construction).
//
// Layout: the first estimation builds one columnar snapshot of the
// whole source — every tag's canonical (pid, frequency) list flattened
// into a shared pid-bit arena (stats.Columns) with dense int32 tag ids
// — and publishes it through an atomic pointer; the snapshot is
// immutable from then on. Edge-compatibility is split along the
// PathWitness factorization: verdict(anc, desc) = word containment
// over two arena rows && a per-descendant witness bit, so the memo
// shrank from one 2-bit cell per (anc, desc) pid pair to one bit per
// descendant pid. Witness bitmaps are built eagerly per (ancestor tag,
// descendant tag, axis) under mu, carved out of a shared chunked
// arena, and stored in the snapshot's witness table, keyed by the
// triple's dense tag ids: a hit is two atomic loads (table, slot), a
// miss fills one slot, and a table past half full is replaced by one
// twice its size, copying slot pointers only. Bitmaps are read-only
// after publication, so the join's inner loop does no atomic or map
// work at all.
type kernel struct {
	lab *pathenc.Labeling
	src Source

	// rootTag is the document root's tag (first tag of path 1), "" when
	// the encoding table is empty; immutable after construction.
	rootTag string

	mu   sync.Mutex // serializes snapshot build and witness misses
	snap atomic.Pointer[snapshot]

	// witFree is the tail of the current witness-bitmap chunk; bitmaps
	// are carved from it so hundreds of tiny memo allocations coalesce
	// into a few contiguous slabs.
	witFree []uint64 // guarded by mu
}

// span is one tag's contiguous run of snapshot entries.
type span struct {
	base int32 // first global entry index
	n    int32 // entry count
}

// snapshot is the immutable columnar image of one source: all tags'
// canonical entry lists laid out back to back. Global entry index g
// owns arena row cols.Words[g*cols.Stride:], frequency cols.Freqs[g],
// and interned pid cols.Pids[g]; tag t (by dense id) owns the entries
// [spans[t].base, spans[t].base+spans[t].n). Tags are assigned dense
// ids in sorted order and entries follow canonicalEntries order, so
// every float summation downstream is bit-deterministic.
type snapshot struct {
	cols  *stats.Columns
	tagID map[string]int32
	names []string // tag name by dense id
	spans []span   // by dense id

	// sparse entries fall back to pointer containment when the arena
	// would exceed maxArenaWords (cols.Words is then nil).
	sparse bool

	// totals is each tag's summed frequency in entry order — the tag
	// population of clampToTag, precomputed with the identical
	// summation order.
	totals []float64

	// idx routes the join's containment sweeps; nil for one-word rows
	// (a row test costs no more than an index probe), for sparse
	// snapshots, and for arenas whose index would pass
	// maxIndexPerArena, which all keep the linear sweeps.
	idx *pivotIndex

	// wit is the witness table: the bitmaps of (ancestor tag,
	// descendant tag, axis) triples that kernel.witness has filled.
	// Slots are written once, under the kernel's mu; a table replaced
	// by a grown one stays valid for readers still holding it.
	wit atomic.Pointer[witTable]
}

// witTable is an open-addressed hash table from a witness triple,
// packed from dense tag ids by witTriple, to its bitmap. It is sized
// by the triples queries actually reach, never by tags², and kept at
// most half full, so a probe always ends at the key or an empty slot.
// Slots are written once, by add under the kernel's mu; lookup takes
// no lock.
type witTable struct {
	shift uint // 64 - log2(len(slots))
	n     int  // filled slots, written by add
	slots []atomic.Pointer[witEntry]
}

// witEntry is one filled witness slot.
type witEntry struct {
	key uint64
	bm  []uint64
}

// minWitSlots sizes a snapshot's first witness table.
const minWitSlots = 16

func newWitTable(slots int) *witTable {
	return &witTable{
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
		slots: make([]atomic.Pointer[witEntry], slots),
	}
}

// witTriple packs a (tag, tag, axis) triple, tags by dense id, into a
// witness table key.
func witTriple(anc, desc int32, axis pathenc.Axis) uint64 {
	return uint64(anc)<<32 | uint64(desc)<<1 | uint64(axis)
}

// lookup returns key's entry, nil when t holds none. It returns the
// entry its probe loaded and never loads a slot twice: a concurrent
// add may fill the empty slot that ended the probe, with another key.
func (t *witTable) lookup(key uint64) *witEntry {
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if e := t.slots[i].Load(); e == nil || e.key == key {
			return e
		}
	}
}

// add stores e, whose key t does not hold, and returns the table that
// holds it: t, or, when t would pass half full, a grown copy of t the
// caller must publish. The caller holds the kernel's mu.
func (t *witTable) add(e *witEntry) *witTable {
	if 2*(t.n+1) > len(t.slots) {
		g := newWitTable(2 * len(t.slots))
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				g.add(old)
			}
		}
		t = g
	}
	mask := uint64(len(t.slots) - 1)
	for i := (e.key * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			t.n++
			return t
		}
	}
}

// pivotIndex narrows a containment test to the rows that can pass it.
// A row contains row d only if it holds d's first set bit, its pivot,
// so a sweep looking for a container of d need visit only the entries
// of the ancestor tag that hold that bit. Per tag, the index keeps one
// posting run for each distinct bit the tag's rows hold: it is sized
// by the arena's set bits and distinct (tag, bit) pairs, never by
// tags × width.
type pivotIndex struct {
	dir  []int32 // by dense tag id, len(tags)+1: the tag's run of bit
	bit  []int32 // each tag's distinct set bits, ascending
	off  []int32 // len(bit)+1: bit[i]'s holders are post[off[i]:off[i+1]]
	post []int32 // global entry ids, ascending within a run
}

// maxIndexPerArena bounds a pivot index at twice the bytes of its pid
// arena. The index spends four bytes per set bit where the arena
// spends one bit, so rows dense in set bits (elements with many leaf
// paths below them) could otherwise make it up to 32 times the arena;
// past the bound the snapshot keeps the linear sweeps.
const maxIndexPerArena = 2

// bytes is the index's size.
func (x *pivotIndex) bytes() int {
	return 4 * (len(x.dir) + len(x.bit) + len(x.off) + len(x.post))
}

// buildPivotIndex indexes a dense arena laid out in spans, or returns
// nil when the index would pass maxIndexPerArena.
func buildPivotIndex(cols *stats.Columns, spans []span) *pivotIndex {
	stride, words := cols.Stride, cols.Words
	// First pass: the exact sizes of bit and post, and with them the
	// size bytes will report.
	setBits, pairs := 0, 0
	union := make([]uint64, stride)
	for _, sp := range spans {
		clear(union)
		for g := sp.base; g < sp.base+sp.n; g++ {
			for i, w := range words[int(g)*stride : int(g+1)*stride] {
				union[i] |= w
				setBits += bits.OnesCount64(w)
			}
		}
		for _, w := range union {
			pairs += bits.OnesCount64(w)
		}
	}
	if 4*(len(spans)+1+2*pairs+1+setBits) > maxIndexPerArena*8*len(words) {
		return nil
	}
	x := &pivotIndex{dir: make([]int32, len(spans)+1)}
	x.bit = make([]int32, 0, pairs)
	x.off = make([]int32, 0, pairs+1)
	x.post = make([]int32, setBits)

	// Second pass, per tag: count each bit's holders, lay the runs out
	// in ascending bit order, then fill them in entry order. cursor is
	// indexed by bit and reset after each tag.
	cursor := make([]int32, stride*64)
	next := int32(0)
	for t, sp := range spans {
		x.dir[t] = int32(len(x.bit))
		clear(union)
		for g := sp.base; g < sp.base+sp.n; g++ {
			for i, w := range words[int(g)*stride : int(g+1)*stride] {
				union[i] |= w
				for ; w != 0; w &= w - 1 {
					cursor[i*64+63-bits.TrailingZeros64(w)]++
				}
			}
		}
		for i, w := range union {
			for ; w != 0; w &^= 1 << uint(63-bits.LeadingZeros64(w)) {
				b := int32(i*64 + bits.LeadingZeros64(w))
				x.bit = append(x.bit, b)
				x.off = append(x.off, next)
				next, cursor[b] = next+cursor[b], next
			}
		}
		for g := sp.base; g < sp.base+sp.n; g++ {
			for i, w := range words[int(g)*stride : int(g+1)*stride] {
				for ; w != 0; w &= w - 1 {
					b := i*64 + 63 - bits.TrailingZeros64(w)
					x.post[cursor[b]] = g
					cursor[b]++
				}
			}
		}
		for _, b := range x.bit[x.dir[t]:] {
			cursor[b] = 0
		}
	}
	x.dir[len(spans)] = int32(len(x.bit))
	x.off = append(x.off, next)
	return x
}

// holders returns the entries of tag t whose rows hold bit b, in
// snapshot order; nil when none does.
func (x *pivotIndex) holders(t, b int32) []int32 {
	lo, end := x.dir[t], x.dir[t+1]
	hi := end
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if x.bit[m] < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < end && x.bit[lo] == b {
		return x.post[x.off[lo]:x.off[lo+1]]
	}
	return nil
}

// pivot returns row g's first set bit, -1 for an empty row. It is
// read off the row rather than stored: a stored pivot would cost the
// index four bytes per entry.
func (s *snapshot) pivot(g int32) int32 {
	stride := s.cols.Stride
	for i, w := range s.cols.Words[int(g)*stride : int(g+1)*stride] {
		if w != 0 {
			return int32(i*64 + bits.LeadingZeros64(w))
		}
	}
	return -1
}

// candidates returns the rows a sweep must test as containers of row
// d: the shorter of surv, the surviving entries of the ancestor node
// (tag t), and the entries of t that hold d's pivot. Both lists hold
// every container of d among the survivors; the join already holds
// both lengths, so the choice costs one probe.
func (s *snapshot) candidates(t, d int32, surv []int32) []int32 {
	if b := s.pivot(d); b >= 0 && len(surv) > 0 {
		if h := s.idx.holders(t, b); len(h) < len(surv) {
			return h
		}
	}
	return surv
}

// maxArenaWords caps the flattened pid arena at 16M words (128 MiB):
// a snapshot whose entries × stride exceed it keeps the columnar
// freq/pid columns but skips the bit arena, and containment falls back
// to the interned *Bitset rows — still witness-memoized, never
// unbounded memory. (The cap replaces the old 2^26 pair-cache cap,
// which the witness factorization made obsolete: witness bitmaps cost
// one bit per descendant entry and never need a cap.)
const maxArenaWords = 1 << 24

// witChunkWords sizes the shared chunks witness bitmaps are carved
// from.
const witChunkWords = 1 << 12

// overArenaCap decides the sparse fallback: whether a snapshot of
// `total` entries at `stride` words per row would exceed the arena
// budget.
func overArenaCap(total, stride int) bool {
	return total*stride > maxArenaWords
}

func newKernel(lab *pathenc.Labeling, src Source) *kernel {
	k := &kernel{lab: lab, src: src}
	if lab.Table.NumPaths() > 0 {
		k.rootTag = lab.Table.PathTags(1)[0]
	}
	return k
}

// snapshot returns the columnar image, building it on first use. The
// build cost is paid once per kernel (i.e. once per summary load), and
// only by kernels that actually estimate.
func (k *kernel) snapshot() *snapshot {
	if s := k.snap.Load(); s != nil {
		return s
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if s := k.snap.Load(); s != nil {
		return s
	}
	s := buildSnapshot(k.lab, k.src)
	k.snap.Store(s)
	return s
}

func buildSnapshot(lab *pathenc.Labeling, src Source) *snapshot {
	tags := src.Tags()
	width := lab.PidWidth()
	stride := (width + 63) / 64

	entryLists := make([][]stats.PidFreq, len(tags))
	total := 0
	for i, tag := range tags {
		entryLists[i] = canonicalEntries(src.Entries(tag))
		total += len(entryLists[i])
	}

	s := &snapshot{
		tagID:  make(map[string]int32, len(tags)),
		names:  tags,
		spans:  make([]span, len(tags)),
		totals: make([]float64, len(tags)),
		sparse: overArenaCap(total, stride),
	}
	s.cols = stats.NewColumns(width, total)
	if s.sparse {
		// Keep the freq/pid columns; drop the word arena.
		s.cols.Words = nil
	}
	g := int32(0)
	for i, tag := range tags {
		s.tagID[tag] = int32(i)
		s.spans[i] = span{base: g, n: int32(len(entryLists[i]))}
		sum := 0.0
		for _, e := range entryLists[i] {
			if s.sparse {
				s.cols.Freqs = append(s.cols.Freqs, e.Freq)
				s.cols.Pids = append(s.cols.Pids, e.Pid)
			} else {
				s.cols.Append(e)
			}
			sum += e.Freq
			g++
		}
		s.totals[i] = sum
	}
	if !s.sparse && stride > 1 {
		s.idx = buildPivotIndex(s.cols, s.spans)
	}
	s.wit.Store(newWitTable(minWitSlots))
	return s
}

// canonicalEntries copies a source's (pid, frequency) list into a
// fixed pid order. Equivalent sources disagree on list order (exact
// tables list pids as elements first close, delta maintenance appends
// new ones, histograms sort by frequency), and the
// estimator's float summations follow snapshot order, so without a
// canonical order two equivalent sources could differ in the last
// bits of an estimate — which would break the bit-determinism the
// differential harness (and any cache keyed on estimates) relies on.
// The copy also keeps the source's own slice unmutated. The order is
// Key() byte order, which is not bit order (Key lays each word out
// least significant byte first, and leaves trailing zero words out,
// which keeps the order among equal-width pids); estimate bits are
// pinned to it.
func canonicalEntries(src []stats.PidFreq) []stats.PidFreq {
	keys := make([]string, len(src))
	idx := make([]int, len(src))
	for i, e := range src {
		keys[i] = e.Pid.Key()
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	entries := make([]stats.PidFreq, len(src))
	for i, j := range idx {
		entries[i] = src[j]
	}
	return entries
}

// tagSpan returns a tag's entry run, a zero span when the tag has no
// entries.
func (s *snapshot) tagSpan(tag string) span {
	if id, ok := s.tagID[tag]; ok {
		return s.spans[id]
	}
	return span{}
}

// tagTotal returns a tag's summed frequency (its population), 0 for an
// unknown tag — the same value the old per-tag snapshot summed on
// every clamp, precomputed once in the identical order.
func (s *snapshot) tagTotal(tag string) float64 {
	if id, ok := s.tagID[tag]; ok {
		return s.totals[id]
	}
	return 0
}

// containsAny reports whether entry a's pid contains-or-equals any of
// the entries descs (global indices) — the ancestor-side pruning test.
func (s *snapshot) containsAny(a int32, descs []int32) bool {
	if !s.sparse {
		return bitset.ContainsAnyWords(s.cols.Words, int(a)*s.cols.Stride, s.cols.Stride, descs)
	}
	ap := s.cols.Pids[a]
	for _, d := range descs {
		if ap.ContainsOrEqual(s.cols.Pids[d]) {
			return true
		}
	}
	return false
}

// anyContains reports whether any of the entries ancs (global indices)
// contains-or-equals entry d's pid — the descendant-side pruning test.
func (s *snapshot) anyContains(ancs []int32, d int32) bool {
	if !s.sparse {
		return bitset.AnyContainsWords(s.cols.Words, int(d)*s.cols.Stride, s.cols.Stride, ancs)
	}
	dp := s.cols.Pids[d]
	for _, a := range ancs {
		if s.cols.Pids[a].ContainsOrEqual(dp) {
			return true
		}
	}
	return false
}

// support marks, in sup, every live entry among cand (the ancestor
// node's candidates; live is its liveness bitmap over the span at
// base) whose row contains-or-equals row d, and reports how many it
// newly marked and whether d has any container. Once d has one and
// every live entry is marked (left counts those still unmarked), no
// further test can change either answer.
func (s *snapshot) support(cand []int32, live, sup []uint64, base, d int32, left int) (marked int, found bool) {
	words, stride := s.cols.Words, s.cols.Stride
	dOff := int(d) * stride
	for _, a := range cand {
		if found && marked == left {
			break
		}
		i := a - base
		w, m := i>>6, uint64(1)<<uint(i&63)
		lw, sw := live[w], sup[w]
		if lw&m == 0 || found && sw&m != 0 {
			continue
		}
		if bitset.ContainsWords(words, int(a)*stride, dOff, stride) {
			found = true
			if sw&m == 0 {
				sup[w] = sw | m
				marked++
			}
		}
	}
	return marked, found
}

// witness returns the witness bitmap of a (tag, tag, axis) triple: bit
// j (within the descendant tag's span) is set iff PathWitness holds
// for descendant entry j, i.e. some root-to-leaf path of its pid
// carries the ancestor tag above the descendant tag at an
// axis-compatible distance. Built eagerly on first use under mu —
// the fill is deterministic, the bitmap immutable after publication.
func (k *kernel) witness(s *snapshot, anc, desc int32, axis pathenc.Axis) []uint64 {
	key := witTriple(anc, desc, axis)
	if e := s.wit.Load().lookup(key); e != nil {
		return e.bm
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	t := s.wit.Load()
	if e := t.lookup(key); e != nil {
		return e.bm
	}
	sp := s.spans[desc]
	var wit []uint64
	wit, k.witFree = carveWitness(k.witFree, int(sp.n+63)/64)
	ancTag, descTag := s.names[anc], s.names[desc]
	for j := int32(0); j < sp.n; j++ {
		if k.lab.PathWitness(ancTag, descTag, s.cols.Pids[sp.base+j], axis) {
			wit[j>>6] |= 1 << uint(j&63)
		}
	}
	if g := t.add(&witEntry{key: key, bm: wit}); g != t {
		// Readers still probing the old table miss into this path.
		s.wit.Store(g)
	}
	return wit
}

// carveWitness carves n words off the front of the free chunk,
// growing it first when it cannot satisfy the request, and returns the
// carved bitmap plus the remaining tail.
func carveWitness(free []uint64, n int) (w, rest []uint64) {
	if n > len(free) {
		size := witChunkWords
		if n > size {
			size = n
		}
		free = make([]uint64, size)
	}
	return free[:n:n], free[n:]
}

// bitAt reads bit j of a bitmap over one tag's span (j local to the
// span): a witness bit, or a join node's liveness bit.
func bitAt(bm []uint64, j int32) bool {
	return bm[j>>6]&(1<<uint(j&63)) != 0
}
