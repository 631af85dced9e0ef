package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"xpathest"
	"xpathest/internal/guard"
)

// planCache is a small LRU over compiled queries, shared by every
// summary (compilation is summary-independent). Hot serving traffic
// repeats a small set of query shapes, so the cache turns the
// per-request parse and query-tree build into a map hit. Only
// successful compilations are cached; failures are recomputed (they
// are as cheap as a parse and caching them would let a hostile client
// evict real plans with garbage).
type planCache struct {
	mu    sync.Mutex
	ll    *list.List               // front = most recently used; guarded by mu
	items map[string]*list.Element // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

type planEntry struct {
	key string
	q   *xpathest.Query
}

// planCacheEntries bounds the plan cache.
const planCacheEntries = 1024

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), items: make(map[string]*list.Element, planCacheEntries)}
}

// compile returns the cached plan for a raw query string, compiling
// and inserting on miss.
func (c *planCache) compile(query string) (*xpathest.Query, error) {
	c.mu.Lock()
	if el, ok := c.items[query]; ok {
		c.ll.MoveToFront(el)
		q := el.Value.(*planEntry).q
		c.mu.Unlock()
		c.hits.Add(1)
		return q, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	q, err := xpathest.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[query]; ok { // raced with another compiler
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry).q, nil
	}
	c.items[query] = c.ll.PushFront(&planEntry{key: query, q: q})
	for c.ll.Len() > planCacheEntries {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planEntry).key)
	}
	return q, nil
}

// estimateCached estimates one compiled query on sum through the
// result cache, keyed by (sum.ID(), canonical query): finished
// estimates survive across requests for as long as sum serves. Only
// successful estimates are cached.
func (s *Server) estimateCached(ctx context.Context, sum *xpathest.Summary, q *xpathest.Query) (float64, error) {
	if v, ok := s.results.Get(sum.ID(), "", q); ok {
		return v, nil
	}
	v, err := sum.EstimateQueryContext(ctx, q)
	if err == nil {
		s.results.Put(sum.ID(), "", q, v)
	}
	return v, err
}

// batchRequest is the POST /estimate/batch payload.
type batchRequest struct {
	Summary string   `json:"summary"`
	Queries []string `json:"queries"`
}

// batchItem is one slot of the batch response; slots are positional
// (results[i] answers queries[i]). Exactly one of Estimate or Error
// is meaningful, and fallback answers are marked like /estimate's.
type batchItem struct {
	Query      string  `json:"query"`
	Estimate   float64 `json:"estimate"`
	Confidence string  `json:"confidence,omitempty"`
	Fallback   bool    `json:"fallback,omitempty"`
	Error      string  `json:"error,omitempty"`
	Kind       string  `json:"kind,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

// maxBatchBytes bounds the request body of one batch: the configured
// per-query and per-batch limits plus JSON overhead, with a safe
// floor when either limit is unlimited.
func maxBatchBytes(l guard.Limits) int64 {
	if l.MaxQueryLen > 0 && l.MaxBatchQueries > 0 {
		return int64(l.MaxBatchQueries)*(int64(l.MaxQueryLen)+16) + 1024
	}
	return 64 << 20
}

// handleEstimateBatch serves POST /estimate/batch: many queries, one
// summary, one round trip. Per-query failures are isolated into their
// slots; only request-level problems (bad JSON, batch too large) fail
// the whole call. Duplicate queries inside the batch are estimated
// once.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	s.batches.Add(1)
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes(s.cfg.Limits))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, guard.Exceeded("batch bytes", tooLarge.Limit, tooLarge.Limit+1))
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("invalid JSON body: %v", err), "kind": "bad_request",
		})
		return
	}
	if req.Summary == "" || len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "required fields: summary, queries", "kind": "bad_request",
		})
		return
	}
	if err := s.cfg.Limits.CheckBatchQueries(len(req.Queries)); err != nil {
		writeError(w, err)
		return
	}
	s.batchQueries.Add(int64(len(req.Queries)))

	// Stale entries carry a last-good summary — they estimate normally
	// (same proven bytes); only a name with nothing loadable degrades.
	e, ok := s.reg.get(req.Summary)
	degraded := !ok || e.sum == nil
	reason := ""
	if degraded {
		reason = "summary not loaded"
		if ok {
			reason = fmt.Sprintf("summary failed to load: %v", e.loadErr)
		}
	}

	// Estimate each distinct query once; positional slots share the
	// outcome. Distinct queries run on a bounded worker pool, which
	// claims each one exactly once.
	distinct := make(map[string]int, len(req.Queries))
	order := make([]string, 0, len(req.Queries))
	for _, q := range req.Queries {
		if _, seen := distinct[q]; !seen {
			distinct[q] = len(order)
			order = append(order, q)
		}
	}
	outcomes := make([]batchItem, len(order))

	run := func(ctx context.Context, raw string) batchItem {
		item := batchItem{Query: raw}
		fail := func(err error) batchItem {
			_, kind := statusFor(err)
			msg := err.Error()
			if kind == "internal" {
				msg = "internal error"
			}
			item.Error, item.Kind = msg, kind
			return item
		}
		if err := s.cfg.Limits.CheckQuery(raw); err != nil {
			return fail(err)
		}
		// Malformed queries are the client's fault regardless of
		// summary health — compile before the fallback decision, so
		// degradation never masks bad queries (same contract as
		// /estimate).
		q, err := s.plans.compile(raw)
		if err != nil {
			return fail(err)
		}
		item.Query = q.String()
		if degraded {
			item.Estimate = s.cfg.FallbackEstimate
			item.Confidence = "low"
			item.Fallback = true
			item.Reason = reason
			return item
		}
		v, err := s.estimateCached(ctx, e.sum, q)
		if err != nil {
			return fail(err)
		}
		item.Estimate = v
		item.Confidence = "normal"
		return item
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				outcomes[n] = run(r.Context(), order[n])
			}
		}()
	}
	wg.Wait()

	results := make([]batchItem, len(req.Queries))
	for i, q := range req.Queries {
		results[i] = outcomes[distinct[q]]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary": req.Summary,
		"results": results,
	})
}
