package xpathest

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// EstimateCache memoizes finished estimates keyed by (summary ID,
// scope, canonical query). Estimation is a pure function of (summary,
// query), so a cached float64 is exactly the value a recomputation
// would produce — bit for bit, because the estimator itself is
// deterministic.
//
// Coherence comes from the key: a Summary is immutable and its ID
// (Summary.ID) is never reused in a process, so an entry can only be
// served for the summary that computed it. A replaced summary leaves
// its entries unreachable, and they age out of the LRU under the byte
// budget; a summary kept in service keeps its entries. Callers that
// key by Summary.ID pass an empty scope; a non-empty scope separates
// namespaces of callers that number their own ids.
//
// A nil *EstimateCache is valid and disables caching: Get always
// misses, Put is a no-op, EstimateQuery computes directly.
type EstimateCache struct {
	mu     sync.Mutex
	budget int64
	used   int64                    // guarded by mu
	ll     *list.List               // front = most recently used; guarded by mu
	items  map[resKey]*list.Element // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type resKey struct {
	id    uint64
	scope string
	query string
}

type resEntry struct {
	key resKey
	v   float64
}

// resEntryOverhead approximates the fixed per-entry footprint beyond
// the key strings: the entry struct, the list element, and the map
// slot.
const resEntryOverhead = 128

func (k resKey) cost() int64 {
	return int64(len(k.scope)) + int64(len(k.query)) + resEntryOverhead
}

// NewEstimateCache returns a cache bounded to roughly budgetBytes of
// key and bookkeeping memory. A budget too small for even one entry
// still admits nothing beyond the single most recent insert's
// eviction sweep, so any budget is safe.
func NewEstimateCache(budgetBytes int64) *EstimateCache {
	return &EstimateCache{
		budget: budgetBytes,
		ll:     list.New(),
		items:  make(map[resKey]*list.Element),
	}
}

// Get returns the cached estimate of q under (id, scope), where id is
// the Summary.ID of the summary the estimate was computed on.
func (c *EstimateCache) Get(id uint64, scope string, q *Query) (float64, bool) {
	if c == nil {
		return 0, false
	}
	key := resKey{id: id, scope: scope, query: q.String()}
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return el.Value.(*resEntry).v, true
}

// Put stores a finished estimate of q on the summary whose Summary.ID
// is id. Only successful estimates belong here: errors are context-
// and load-dependent, not pure functions of the key.
func (c *EstimateCache) Put(id uint64, scope string, q *Query, v float64) {
	if c == nil {
		return
	}
	key := resKey{id: id, scope: scope, query: q.String()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Determinism makes any stored value equal; refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&resEntry{key: key, v: v})
	c.used += key.cost()
	for c.used > c.budget && c.ll.Len() > 1 {
		last := c.ll.Back()
		c.ll.Remove(last)
		ent := last.Value.(*resEntry)
		delete(c.items, ent.key)
		c.used -= ent.key.cost()
		c.evictions.Add(1)
	}
}

// EstimateQuery serves q on sum from the cache, keyed by sum.ID() and
// the empty scope, or computes it on sum and fills the cache. Errors
// are returned uncached.
func (c *EstimateCache) EstimateQuery(sum *Summary, q *Query) (float64, error) {
	if v, ok := c.Get(sum.ID(), "", q); ok {
		return v, nil
	}
	v, err := sum.EstimateQuery(q)
	if err != nil {
		return 0, err
	}
	c.Put(sum.ID(), "", q, v)
	return v, nil
}

// Stats returns the cumulative hit, miss, and eviction counts.
func (c *EstimateCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
