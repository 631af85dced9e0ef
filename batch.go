package xpathest

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xpathest/internal/guard"
	"xpathest/internal/xpath"
)

// Query is a compiled query: parsed, validated and built into its
// query tree once, reusable for any number of estimations against any
// summary. It is immutable and safe for concurrent use — estimation
// only reads the tree — which is what makes it the unit of the
// serving layer's plan cache.
type Query struct {
	tree *xpath.Tree
	text string
}

// CompileQuery parses a query string, validates it against the
// supported fragment and builds its query tree. A query that parses
// but has no query tree (an order axis the paper's standardized shape
// cannot anchor, such as //a//b/folls::c) fails here, with the same
// ErrMalformedQuery-wrapped error estimation would return.
func CompileQuery(query string) (*Query, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	t, err := xpath.BuildTree(p)
	if err != nil {
		return nil, err
	}
	return &Query{tree: t, text: p.String()}, nil
}

// String returns the query's canonical form.
func (q *Query) String() string { return q.text }

// EstimateQuery estimates a compiled query, skipping the per-call
// parse and tree build of Estimate.
func (s *Summary) EstimateQuery(q *Query) (float64, error) {
	if q == nil {
		return 0, fmt.Errorf("xpathest: nil query: %w", guard.ErrInvalidArgument)
	}
	return s.est.EstimateTree(q.tree)
}

// EstimateQueryContext is EstimateQuery with a cancellation check and
// panic isolation, mirroring EstimateContext.
func (s *Summary) EstimateQueryContext(ctx context.Context, q *Query) (float64, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return 0, err
	}
	if q == nil {
		return 0, fmt.Errorf("xpathest: nil query: %w", guard.ErrInvalidArgument)
	}
	var v float64
	err := guard.Safe("estimate", func() error {
		var err error
		v, err = s.est.EstimateTree(q.tree)
		return err
	})
	return v, err
}

// BatchOptions controls batch estimation.
type BatchOptions struct {
	// Concurrency bounds the worker pool; 0 means GOMAXPROCS. The
	// pool never exceeds the number of queries.
	Concurrency int

	// Limits guards the request: MaxBatchQueries rejects the whole
	// batch up front, MaxQueryLen rejects individual queries. The zero
	// value means "unlimited", matching the non-Context API.
	Limits Limits
}

// BatchResult is the outcome of one query of a batch: either an
// estimate or a per-query error, never both. Err wraps the usual
// taxonomy sentinels (ErrMalformedQuery, ErrLimitExceeded,
// ErrCanceled, ErrInternal, ...).
type BatchResult struct {
	// Query is the input string, echoed positionally.
	Query string
	// Estimate is the estimated selectivity when Err is nil.
	Estimate float64
	// Err is the query's failure, nil on success.
	Err error
}

// EstimateBatch estimates many queries against the summary with a
// bounded worker pool. Failures are isolated per query — one
// malformed query (or even one that panics the estimator) yields an
// Err in its slot without disturbing the others. Duplicate query
// strings are estimated once and share their outcome (estimation is a
// pure function of the summary and the query). Results are
// positional: results[i] answers queries[i].
func (s *Summary) EstimateBatch(queries []string) []BatchResult {
	// A nil context (handled throughout guard) keeps this non-Context
	// entry point cancellation-free without minting a background one.
	results, _ := s.EstimateBatchContext(nil, queries, BatchOptions{})
	return results
}

// EstimateBatchContext is EstimateBatch under cancellation and guard
// limits. A batch larger than opts.Limits.MaxBatchQueries is rejected
// whole with an ErrLimitExceeded-wrapped error; everything after
// admission is per-query. Once ctx is canceled, unstarted queries
// complete with ErrCanceled-wrapped errors rather than blocking.
func (s *Summary) EstimateBatchContext(ctx context.Context, queries []string, opts BatchOptions) ([]BatchResult, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	if err := opts.Limits.CheckBatchQueries(len(queries)); err != nil {
		return nil, fmt.Errorf("xpathest: batch rejected: %w", err)
	}
	results := make([]BatchResult, len(queries))

	// Estimate each distinct query string once; duplicate slots share
	// the outcome by value.
	distinct := make(map[string]int, len(queries))
	order := make([]string, 0, len(queries))
	for _, q := range queries {
		if _, seen := distinct[q]; !seen {
			distinct[q] = len(order)
			order = append(order, q)
		}
	}
	outcomes := make([]BatchResult, len(order))

	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	if workers == 0 {
		return results, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				outcomes[i] = s.estimateOne(ctx, order[i], opts.Limits)
			}
		}()
	}
	wg.Wait()

	for i, q := range queries {
		results[i] = outcomes[distinct[q]]
	}
	return results, nil
}

// estimateOne runs one batch slot: guard checks, then estimation with
// panic isolation.
func (s *Summary) estimateOne(ctx context.Context, query string, lim Limits) BatchResult {
	r := BatchResult{Query: query}
	if err := guard.CheckContext(ctx); err != nil {
		r.Err = err
		return r
	}
	if err := lim.CheckQuery(query); err != nil {
		r.Err = err
		return r
	}
	r.Err = guard.Safe("estimate", func() error {
		var err error
		r.Estimate, err = s.est.EstimateString(query)
		return err
	})
	return r
}
