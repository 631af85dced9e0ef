// Package server implements the hardened HTTP estimation service
// behind `xpest serve`. Its resilience posture:
//
//   - every request runs under a deadline and the configured resource
//     Limits; hostile inputs (XML bombs, huge summary streams, oversized
//     queries) are rejected with typed errors before they are
//     materialized;
//   - a panic anywhere in request handling becomes a structured 500
//     response — the process never dies for one request;
//   - admission control caps in-flight requests; excess load sheds with
//     503 instead of queuing unboundedly;
//   - the summary registry swaps atomically, so /reload never blocks or
//     torments in-flight estimates, and a summary that fails to load
//     degrades that name to low-confidence fallback estimates instead
//     of taking the endpoint down;
//   - summaries persist through the durable summarystore (atomic
//     writes, checksummed reads, retry with backoff, quarantine), and
//     the load state machine serves the last-good version when a reload
//     fails (stale-serving) — a reload can freeze the served view but
//     never blank it;
//   - a per-name circuit breaker stops reloads from hammering a
//     persistently failing file; /healthz/live and /healthz/ready split
//     liveness from readiness so orchestrators see degradation without
//     killing a process that is still serving;
//   - shutdown is graceful: on context cancellation the listener closes
//     immediately and in-flight requests drain up to DrainTimeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpathest"
	"xpathest/internal/guard"
	"xpathest/internal/summarystore"
)

// Config tunes the service. The zero value of each field falls back to
// the default noted on it.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8321").
	Addr string
	// Limits bounds per-request resource use (default guard.DefaultLimits()).
	Limits guard.Limits
	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently-served requests; excess requests
	// receive 503 (default 64).
	MaxInFlight int
	// SummaryDir, when set, is scanned for *.xpsum files at startup and
	// on POST /reload, and receives uploaded summaries.
	SummaryDir string
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// FallbackEstimate is returned (with confidence "low") when the
	// requested summary is missing or failed to load (default 1.0).
	FallbackEstimate float64
	// ResultCacheBytes bounds the finished-estimate cache shared by
	// /estimate and /estimate/batch (default 4 MiB; negative disables
	// it). Entries are keyed by the summary they were computed on
	// (xpathest.Summary.ID), so an upload, summarize, delta or loading
	// reload of one name leaves every other name's entries valid, and a
	// summary a reload carries forward keeps its own.
	ResultCacheBytes int64
	// EnablePanicRoute registers POST /debug/panic, which panics inside
	// the handler. Tests use it to prove panic isolation; production
	// configs leave it off.
	EnablePanicRoute bool
	// Logger receives operational messages (default log.Default()).
	Logger *log.Logger

	// StoreFS overrides the summary store's filesystem — tests and the
	// chaos harness plug a faultinject.Injector here. When set, the
	// store is active even if SummaryDir is empty.
	StoreFS summarystore.FS
	// StoreReadRetries / StoreBackoffBase / StoreBackoffMax /
	// QuarantineAfter forward to summarystore.Config (see its docs for
	// defaults).
	StoreReadRetries int
	StoreBackoffBase time.Duration
	StoreBackoffMax  time.Duration
	QuarantineAfter  int
	// BreakerThreshold is the number of consecutive failed loads after
	// which a name's circuit breaker opens (default 3).
	BreakerThreshold int
	// BreakerCooldown suppresses half-open probes for this long after
	// the breaker opens. The default 0 probes on every reload.
	BreakerCooldown time.Duration
	// StartupRetries is how many times the initial summary load retries
	// a listing failure before New gives up (default 2); the delay
	// doubles from StartupBackoff (default 200ms).
	StartupRetries int
	StartupBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8321"
	}
	if c.Limits == (guard.Limits{}) {
		c.Limits = guard.DefaultLimits()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.FallbackEstimate == 0 {
		c.FallbackEstimate = 1.0
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 4 << 20
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.StartupRetries < 0 {
		c.StartupRetries = 0
	} else if c.StartupRetries == 0 {
		c.StartupRetries = 2
	}
	if c.StartupBackoff <= 0 {
		c.StartupBackoff = 200 * time.Millisecond
	}
	return c
}

// entry is one named summary in the registry. A load failure is kept —
// not dropped — so /estimate can degrade gracefully and /summaries can
// report why the name is unhealthy. When a reload fails for a name
// that loaded before, the entry carries the last-good summary forward
// with stale set: estimates keep answering from the proven bytes while
// the failure stays visible. Entries are immutable after publication.
type entry struct {
	sum     *xpathest.Summary
	loadErr error
	loaded  time.Time
	stale   bool

	// doc is the live document behind a /summarize-built summary; only
	// such entries accept POST /delta edits. Uploaded or store-loaded
	// summaries have no document and leave it nil.
	doc *xpathest.Document
}

// registry is the atomically-swappable name→summary map. Readers grab
// the current map with a single atomic load; writers build a new map
// and swap it in, so estimates never see a half-updated view.
type registry struct {
	m atomic.Pointer[map[string]*entry]
	// mu serializes writers only (upload, summarize, delta, reload).
	mu sync.Mutex
}

func newRegistry() *registry {
	r := &registry{}
	empty := map[string]*entry{}
	r.m.Store(&empty)
	return r
}

func (r *registry) get(name string) (*entry, bool) {
	e, ok := (*r.m.Load())[name]
	return e, ok
}

func (r *registry) snapshot() map[string]*entry { return *r.m.Load() }

// set installs one entry, copying the current map.
func (r *registry) set(name string, e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.m.Load()
	next := make(map[string]*entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = e
	r.m.Store(&next)
}

// merge publishes a reload's map next, built from the snapshot base.
// A name whose current entry is not base's entry was published by a
// writer while the reload ran, and keeps the writer's entry: entries
// are immutable after publication, so pointer identity means
// "unchanged since the snapshot".
func (r *registry) merge(base, next map[string]*entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range *r.m.Load() {
		if base[name] != e {
			next[name] = e
		}
	}
	r.m.Store(&next)
}

// Server is the estimation service.
type Server struct {
	cfg     Config
	reg     *registry
	sem     chan struct{}
	mux     *http.ServeMux
	http    *http.Server
	plans   *planCache
	results *xpathest.EstimateCache // nil when ResultCacheBytes < 0

	ln      net.Listener // nil until Start; guarded by lnGuard
	lnGuard sync.Mutex

	store    *summarystore.Store // nil when no store is configured
	breakers *breakerSet
	// deltaMu serializes /delta edits so each applies to the latest
	// summary of its name; registry swaps stay atomic for readers.
	deltaMu sync.Mutex
	// reloadMu serializes load-state-machine passes; registry swaps
	// stay atomic for readers.
	reloadMu    sync.Mutex
	startupDone atomic.Bool

	started      time.Time
	requests     atomic.Int64
	panics       atomic.Int64
	shed         atomic.Int64
	batches      atomic.Int64
	batchQueries atomic.Int64
	reloads      atomic.Int64
	unavailable  atomic.Int64
}

// New builds a Server and, if a summary store is configured
// (cfg.SummaryDir or cfg.StoreFS), loads the *.xpsum files found there
// under ctx — canceling it aborts the initial load. Per-name load
// failures do not fail construction — the affected names serve
// fallback estimates and the failure is visible in GET /summaries. A
// store listing failure (the disk itself misbehaving) retries
// cfg.StartupRetries times with doubling backoff before New gives up.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		plans:    newPlanCache(),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	if cfg.ResultCacheBytes > 0 {
		s.results = xpathest.NewEstimateCache(cfg.ResultCacheBytes)
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.middleware(s.mux),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if cfg.SummaryDir != "" || cfg.StoreFS != nil {
		fsys := cfg.StoreFS
		if fsys == nil {
			fsys = summarystore.Dir(cfg.SummaryDir)
		}
		store, err := summarystore.Open(summarystore.Config{
			FS:              fsys,
			Limits:          cfg.Limits,
			ReadRetries:     cfg.StoreReadRetries,
			BackoffBase:     cfg.StoreBackoffBase,
			BackoffMax:      cfg.StoreBackoffMax,
			QuarantineAfter: cfg.QuarantineAfter,
		})
		if err != nil {
			return nil, err
		}
		s.store = store
		if err := s.startupLoad(ctx); err != nil {
			return nil, err
		}
	}
	s.startupDone.Store(true)
	return s, nil
}

// startupLoad runs the initial reload, retrying listing failures with
// doubling backoff. Per-name failures are not retried here beyond what
// the store already does — the running server's reloads and breakers
// own that from now on.
func (s *Server) startupLoad(ctx context.Context) error {
	delay := s.cfg.StartupBackoff
	for attempt := 0; ; attempt++ {
		_, err := s.reload(ctx)
		if err == nil {
			return nil
		}
		if errors.Is(err, guard.ErrCanceled) || attempt >= s.cfg.StartupRetries {
			return err
		}
		s.cfg.Logger.Printf("server: startup load attempt %d failed, retrying in %s: %v", attempt+1, delay, err)
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return guard.CheckContext(ctx)
		case <-t.C:
		}
		delay *= 2
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz/live", s.handleHealthzLive)
	s.mux.HandleFunc("GET /healthz/ready", s.handleHealthzReady)
	s.mux.HandleFunc("/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /estimate/batch", s.handleEstimateBatch)
	s.mux.HandleFunc("GET /summaries", s.handleList)
	s.mux.HandleFunc("PUT /summaries/{name}", s.handleUpload)
	s.mux.HandleFunc("POST /summaries/{name}", s.handleUpload)
	s.mux.HandleFunc("POST /summarize", s.handleSummarize)
	s.mux.HandleFunc("POST /delta/{name}", s.handleDelta)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	if s.cfg.EnablePanicRoute {
		s.mux.HandleFunc("POST /debug/panic", func(http.ResponseWriter, *http.Request) {
			panic("debug/panic: deliberate")
		})
	}
}

// middleware wraps every route with, outermost first: panic recovery,
// admission control, and the per-request deadline.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.cfg.Logger.Printf("server: recovered panic in %s %s: %v", r.Method, r.URL.Path, rec)
				writeError(w, &guard.PanicError{Op: r.URL.Path, Value: rec})
			}
		}()
		// Liveness must answer even at capacity: an orchestrator probing
		// /healthz/live during a load spike must not conclude the
		// process is dead and kill a server that is merely busy.
		if r.URL.Path != "/healthz/live" {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.shed.Add(1)
				writeError(w, guard.Unavailable("server at capacity", time.Second))
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// The context deadline stops compute loops, but a handler blocked
		// in r.Body.Read waits on the network, not the context — a
		// connection read deadline is what bounds a stalled client.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// errorResponse maps the guard taxonomy onto HTTP statuses. Anything
// not in the taxonomy is an internal error.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, guard.ErrMalformedQuery):
		return http.StatusBadRequest, "malformed_query"
	case errors.Is(err, guard.ErrMalformedDocument):
		return http.StatusBadRequest, "malformed_document"
	case errors.Is(err, guard.ErrCorruptSummary):
		return http.StatusBadRequest, "corrupt_summary"
	case errors.Is(err, guard.ErrInvalidArgument):
		return http.StatusBadRequest, "invalid_argument"
	case errors.Is(err, guard.ErrLimitExceeded):
		return http.StatusRequestEntityTooLarge, "limit_exceeded"
	case errors.Is(err, guard.ErrUnavailable):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, guard.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeError(w http.ResponseWriter, err error) {
	code, kind := statusFor(err)
	var unavail *guard.UnavailableError
	if errors.As(err, &unavail) && unavail.RetryAfter > 0 {
		// Ceil to whole seconds; Retry-After: 0 would invite an
		// immediate retry storm.
		secs := (unavail.RetryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	msg := err.Error()
	if code == http.StatusInternalServerError {
		// Internal detail (including panic stacks) stays in the log.
		msg = "internal error"
	}
	writeJSON(w, code, map[string]any{"error": msg, "kind": kind})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.snapshot()
	healthy := 0
	for _, e := range snap {
		if e.loadErr == nil {
			healthy++
		}
	}
	st := s.resilience()
	rcHits, rcMisses, rcEvictions := s.results.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":                 "ok",
		"uptime_seconds":         int(time.Since(s.started).Seconds()),
		"summaries":              len(snap),
		"summaries_healthy":      healthy,
		"summaries_stale":        st.stale,
		"summaries_failed":       st.failed,
		"summaries_quarantined":  st.quarantined,
		"breakers_open":          st.breakersOpen,
		"reloads":                s.reloads.Load(),
		"requests_total":         s.requests.Load(),
		"requests_shed":          s.shed.Load(),
		"requests_unavailable":   s.unavailable.Load(),
		"panics_recovered":       s.panics.Load(),
		"max_in_flight":          s.cfg.MaxInFlight,
		"request_timeout_ms":     s.cfg.RequestTimeout.Milliseconds(),
		"batch_requests":         s.batches.Load(),
		"batch_queries":          s.batchQueries.Load(),
		"plan_cache_hits":        s.plans.hits.Load(),
		"plan_cache_misses":      s.plans.misses.Load(),
		"result_cache_hits":      rcHits,
		"result_cache_misses":    rcMisses,
		"result_cache_evictions": rcEvictions,
	})
}

// handleHealthzLive is pure liveness: the process is up and the
// handler stack works. It says nothing about summaries — a fully
// degraded server is still alive and must not be restarted into a
// crash loop that serves nothing at all.
func (s *Server) handleHealthzLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

// handleHealthzReady is readiness: 200 only when startup finished and
// every non-quarantined summary is fresh (no failures, no stale
// serving, no open breakers). Quarantined names are reported but do
// not block — they need an operator, and the rest of the store serves
// correctly. The body carries the counters either way, so an operator
// sees why the server is not ready without grepping logs.
func (s *Server) handleHealthzReady(w http.ResponseWriter, _ *http.Request) {
	ready, st := s.ready()
	code := http.StatusOK
	status := "ready"
	if !ready {
		code = http.StatusServiceUnavailable
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":                status,
		"startup_done":          s.startupDone.Load(),
		"summaries_ok":          st.ok,
		"summaries_stale":       st.stale,
		"summaries_failed":      st.failed,
		"summaries_quarantined": st.quarantined,
		"breakers_open":         st.breakersOpen,
	})
}

// estimateResponse is the /estimate payload. Fallback answers are
// explicit: callers can always tell a real estimate from a degraded
// one.
type estimateResponse struct {
	Summary    string  `json:"summary"`
	Query      string  `json:"query"`
	Estimate   float64 `json:"estimate"`
	Confidence string  `json:"confidence"`
	Fallback   bool    `json:"fallback"`
	Stale      bool    `json:"stale,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "GET or POST"})
		return
	}
	name := r.URL.Query().Get("summary")
	q := r.URL.Query().Get("q")
	if name == "" || q == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "required query parameters: summary, q", "kind": "bad_request",
		})
		return
	}
	if err := s.cfg.Limits.CheckQuery(q); err != nil {
		writeError(w, err)
		return
	}
	// A malformed query is the client's fault regardless of summary
	// health — compile (parse and build the query tree) before the
	// fallback decision so degradation never masks bad queries.
	// Compiling also routes /estimate through the same plan cache and
	// result cache as /estimate/batch.
	qq, err := s.plans.compile(q)
	if err != nil {
		writeError(w, err)
		return
	}
	canonical := qq.String()
	e, ok := s.reg.get(name)
	if !ok || e.sum == nil {
		// No last-good summary to serve. If the breaker is open the
		// name is known-broken and actively cooling down — tell the
		// client to come back rather than hand out fallback guesses.
		if ok && s.breakers.isOpen(name) {
			s.unavailable.Add(1)
			writeError(w, guard.Unavailable("summary "+name, s.retryAfter()))
			return
		}
		reason := "summary not loaded"
		if ok {
			reason = fmt.Sprintf("summary failed to load: %v", e.loadErr)
		}
		writeJSON(w, http.StatusOK, estimateResponse{
			Summary:    name,
			Query:      canonical,
			Estimate:   s.cfg.FallbackEstimate,
			Confidence: "low",
			Fallback:   true,
			Reason:     reason,
		})
		return
	}
	v, err := s.estimateCached(r.Context(), e.sum, qq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse{
		Summary:    name,
		Query:      canonical,
		Estimate:   v,
		Confidence: "normal",
		// Stale marks answers served from the last good version while
		// the current on-disk file is failing — same proven bytes, so
		// the value itself is as trustworthy as before the fault.
		Stale: e.stale,
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.snapshot()
	type item struct {
		Name   string `json:"name"`
		Status string `json:"status"`
		Error  string `json:"error,omitempty"`
		Loaded string `json:"loaded"`
	}
	items := make([]item, 0, len(snap))
	for name, e := range snap {
		it := item{Name: name, Status: "ok", Loaded: e.loaded.UTC().Format(time.RFC3339)}
		if e.loadErr != nil {
			switch {
			case errors.Is(e.loadErr, summarystore.ErrQuarantined):
				it.Status = "quarantined"
			case e.stale:
				it.Status = "stale"
			default:
				it.Status = "failed"
			}
			it.Error = e.loadErr.Error()
		}
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"summaries": items})
}

// validName keeps registry keys safe for use as file names.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "invalid summary name", "kind": "bad_request"})
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxSummaryBytes(s.cfg.Limits))
	sum, err := xpathest.ReadSummaryContext(r.Context(), body, s.cfg.Limits)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			err = guard.Exceeded("summary bytes", tooLarge.Limit, tooLarge.Limit+1)
		}
		writeError(w, err)
		return
	}
	if s.store != nil {
		if err := s.persist(r.Context(), name, sum); err != nil {
			writeError(w, err)
			return
		}
	}
	s.reg.set(name, &entry{sum: sum, loaded: time.Now()})
	writeJSON(w, http.StatusOK, map[string]any{"summary": name, "status": "loaded"})
}

// persist writes the summary through the durable store (atomic write,
// checksum trailer). A successful write is the repair path for a
// quarantined or breaker-open name: the store clears its quarantine
// and the breaker closes, so the next reload probes the fresh file.
func (s *Server) persist(ctx context.Context, name string, sum *xpathest.Summary) error {
	if err := s.store.Save(ctx, name+summarystore.Suffix, sum); err != nil {
		return err
	}
	s.breakers.clear(name)
	return nil
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if !validName(name) {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "required query parameter: name", "kind": "bad_request"})
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxDocumentBytes(s.cfg.Limits))
	doc, err := xpathest.ParseDocumentContext(r.Context(), body, s.cfg.Limits)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			err = guard.Exceeded("document bytes", tooLarge.Limit, tooLarge.Limit+1)
		}
		writeError(w, err)
		return
	}
	sum, err := doc.BuildSummaryContext(r.Context(), xpathest.SummaryOptions{})
	if err != nil {
		writeError(w, err)
		return
	}
	if s.store != nil {
		if err := s.persist(r.Context(), name, sum); err != nil {
			writeError(w, err)
			return
		}
	}
	s.reg.set(name, &entry{sum: sum, doc: doc, loaded: time.Now()})
	writeJSON(w, http.StatusOK, map[string]any{
		"summary": name, "status": "loaded",
		"elements": doc.NumElements(),
	})
}

// handleReload runs one pass of the load state machine and reports
// what it did per name: loaded, stale-serving, quarantined, breaker
// suppressed, or failed with a classified reason (corrupt vs io vs
// quarantined) — an operator diagnosing a sick store should not need
// to correlate log lines.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "no summary directory configured", "kind": "bad_request"})
		return
	}
	rep, err := s.reload(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "reloaded",
		"summaries":    len(s.reg.snapshot()),
		"loaded":       rep.Loaded,
		"stale":        rep.Stale,
		"quarantined":  rep.Quarantined,
		"breaker_open": rep.BreakerOpen,
		"failed":       rep.Failed,
	})
}

func maxSummaryBytes(l guard.Limits) int64 {
	if l.MaxSummaryBytes > 0 {
		return l.MaxSummaryBytes
	}
	return guard.DefaultLimits().MaxSummaryBytes
}

func maxDocumentBytes(l guard.Limits) int64 {
	if l.MaxDocumentBytes > 0 {
		return l.MaxDocumentBytes
	}
	return guard.DefaultLimits().MaxDocumentBytes
}

// Addr returns the bound listen address once Run (or Start) has opened
// the listener — useful when cfg.Addr requested port 0.
func (s *Server) Addr() string {
	s.lnGuard.Lock()
	defer s.lnGuard.Unlock()
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.cfg.Addr
}

// Start opens the listener and begins serving in a new goroutine. It
// returns once the address is bound, so callers can read Addr().
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lnGuard.Lock()
	s.ln = ln
	s.lnGuard.Unlock()
	s.started = time.Now()
	//lint:ignore goroutinescope acceptor lifetime is the listener itself: Shutdown closes ln, which makes Serve return and the goroutine exit
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logger.Printf("server: serve: %v", err)
		}
	}()
	s.cfg.Logger.Printf("server: listening on %s", ln.Addr())
	return nil
}

// Shutdown drains in-flight requests up to DrainTimeout, then forces
// the remaining connections closed.
func (s *Server) Shutdown() error {
	// The drain must outlive the (already canceled) serve context, so a
	// fresh root bounded by DrainTimeout is the correct lifetime here.
	//lint:ignore ctxpropagate drain deadline must survive the canceled serve context
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Past the drain budget: hard-close what is left.
		closeErr := s.http.Close()
		if closeErr != nil && err == nil {
			err = closeErr
		}
	}
	return err
}

// Run starts the server and blocks until ctx is canceled (typically by
// SIGTERM via signal.NotifyContext), then shuts down gracefully.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	s.cfg.Logger.Printf("server: shutting down (draining up to %s)", s.cfg.DrainTimeout)
	return s.Shutdown()
}
