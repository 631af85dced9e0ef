// Seeded violations for the arenaalias analyzer: slabs written or
// retained after the local map holding them is published, chunk
// carves without a capacity clamp, and the publication shapes rule 1
// does not track.
package a

import "sync/atomic"

type kernel struct {
	wit  atomic.Pointer[map[string][]uint64]
	free []uint64
}

var scratch []uint64

// fillAfterPublish is the canonical rule-1 violation: the slab slice is
// stored into a local map, the map is published, and then the slab is
// written through the pre-publication alias — a write lock-free readers
// can observe mid-flight.
func (k *kernel) fillAfterPublish(key string, n int) {
	bits := make([]uint64, n)
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
	bits[0] |= 1 // want `element write of bits, a writable alias into the slab published via atomic Pointer\.Store`
}

// appendAfterPublish grows a published slab in place through an alias
// of the stored slice.
func (k *kernel) appendAfterPublish(key string, bits []uint64) {
	alias := bits
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
	alias = append(alias, 7) // want `append of alias, a writable alias into the slab published via atomic Pointer\.Store`
	_ = alias
}

// retainAfterPublish keeps a writable alias to published slab memory in
// longer-lived storage: no write yet, but nothing stops one later.
func (k *kernel) retainAfterPublish(key string, n int) {
	bits := make([]uint64, n)
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
	scratch = bits // want `retention of bits, a writable alias into the slab published via atomic Pointer\.Store`
}

// carveNoClamp is the rule-2 violation: the prefix keeps capacity over
// the tail, so an append through the carved slab writes its neighbor.
func carveNoClamp(free []uint64, n int) ([]uint64, []uint64) {
	return free[:n], free[n:] // want `carved prefix of free shares backing capacity with the other carve in this statement`
}

// carveNoClampAssign is the same bug in assignment form.
func (k *kernel) carveNoClampAssign(n int) []uint64 {
	var bits []uint64
	bits, k.free = k.free[:n], k.free[n:] // no report: k.free is a field, not a tracked local — but bits/free below is
	free := k.free
	bits, free = free[:n], free[n:] // want `carved prefix of free shares backing capacity with the other carve in this statement`
	_ = free
	return bits
}

// carveClamped is the sanctioned 3-index carve: capacity is clamped to
// the prefix, so the halves cannot overlap.
func carveClamped(free []uint64, n int) ([]uint64, []uint64) {
	return free[:n:n], free[n:]
}

// fillBeforePublish is the sanctioned fill discipline: all writes to
// the slab happen before the map is published.
func (k *kernel) fillBeforePublish(key string, n int) {
	bits := make([]uint64, n)
	bits[0] |= 1
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
}

// readAfterPublish only reads through the alias, which is fine.
func (k *kernel) readAfterPublish(key string, n int) uint64 {
	bits := make([]uint64, n)
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
	return bits[0]
}

// justified carries a suppression with a reason.
func (k *kernel) justified(key string, n int) {
	bits := make([]uint64, n)
	next := map[string][]uint64{}
	next[key] = bits
	k.wit.Store(&next)
	//lint:ignore arenaalias slab is still private: the map pointer is not handed to readers until init returns
	bits[0] |= 1
}

// witEntry and witTable mirror internal/core's witness table: a slot
// publishes one immutable (key, bitmap) entry.
type witEntry struct {
	key uint64
	bm  []uint64
}

type witTable struct {
	slots []atomic.Pointer[witEntry]
}

func (t *witTable) add(i int, e *witEntry) { t.slots[i].Store(e) }

// literalThenStore is not reported: the slab goes into a composite
// literal, never into a local the function assigns, so rule 1 does not
// count it as content of the published entry.
func (t *witTable) literalThenStore(i int, key uint64, n int) {
	bits := make([]uint64, n)
	e := &witEntry{key: key, bm: bits}
	t.slots[i].Store(e)
	bits[0] |= 1
}

// publishViaMethod is not reported: the Store happens inside add, out
// of this function's sight.
func (t *witTable) publishViaMethod(i int, key uint64, n int) {
	bits := make([]uint64, n)
	t.add(i, &witEntry{key: key, bm: bits})
	bits[0] |= 1
}
