package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"xpathest/internal/guard"
	"xpathest/internal/summarystore"
)

// breakerSet is the per-name circuit breaker over summary loads. A
// name opens after `threshold` consecutive load failures; once open,
// reloads stop hammering the failing file. With cooldown zero (the
// default) every subsequent reload is a half-open probe — one load
// attempt that closes the breaker on success and refreshes it on
// failure. A positive cooldown additionally suppresses probes until it
// has elapsed since the breaker opened (or since the last failed
// probe).
type breakerSet struct {
	threshold int
	cooldown  time.Duration

	mu sync.Mutex
	m  map[string]breakerState // guarded by mu
}

// breakerState is one name's failure streak. Values are copied in and
// out of breakerSet.m under its lock; the struct itself is never
// shared.
type breakerState struct {
	fails    int
	openedAt time.Time
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{threshold: threshold, cooldown: cooldown, m: make(map[string]breakerState)}
}

// allowProbe reports whether a reload should attempt to load name.
func (b *breakerSet) allowProbe(name string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.m[name]
	if !ok || st.fails < b.threshold || b.cooldown <= 0 {
		return true
	}
	return now.Sub(st.openedAt) >= b.cooldown
}

// onFailure records a failed load and reports whether the breaker is
// now open. A failure while open (a failed half-open probe) refreshes
// openedAt, restarting the cooldown.
func (b *breakerSet) onFailure(name string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[name]
	st.fails++
	if st.fails >= b.threshold {
		st.openedAt = now
	}
	b.m[name] = st
	return st.fails >= b.threshold
}

// clear closes the breaker (successful load, successful upload, or
// custody handed to quarantine).
func (b *breakerSet) clear(name string) {
	b.mu.Lock()
	delete(b.m, name)
	b.mu.Unlock()
}

// isOpen reports whether name's breaker is open.
func (b *breakerSet) isOpen(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[name].fails >= b.threshold
}

// openNames returns the names with open breakers, sorted.
func (b *breakerSet) openNames() []string {
	b.mu.Lock()
	var names []string
	for n, st := range b.m {
		if st.fails >= b.threshold {
			names = append(names, n)
		}
	}
	b.mu.Unlock()
	sort.Strings(names)
	return names
}

// retain drops state for names no longer present on disk, so a
// deleted file cannot hold its breaker open forever.
func (b *breakerSet) retain(seen map[string]bool) {
	b.mu.Lock()
	for n := range b.m {
		if !seen[n] {
			delete(b.m, n)
		}
	}
	b.mu.Unlock()
}

// loadFailure is the operator-facing reason one name failed to load.
type loadFailure struct {
	Kind  string `json:"kind"` // "corrupt" | "io" | "limit" | "quarantined"
	Error string `json:"error"`
}

// reloadReport is what one pass of the load state machine did, keyed
// by registry name (no .xpsum suffix). Slices are non-nil so the JSON
// is always arrays, never null.
type reloadReport struct {
	Loaded      []string               `json:"loaded"`
	Stale       []string               `json:"stale"`
	Quarantined []string               `json:"quarantined"`
	BreakerOpen []string               `json:"breaker_open"`
	Failed      map[string]loadFailure `json:"failed"`
}

func newReloadReport() reloadReport {
	return reloadReport{
		Loaded:      []string{},
		Stale:       []string{},
		Quarantined: []string{},
		BreakerOpen: []string{},
		Failed:      map[string]loadFailure{},
	}
}

// normalize sorts every name list so the serialized report is
// byte-identical between runs regardless of how the store enumerated
// the directory. (Failed is a map; encoding/json already emits its
// keys sorted.)
func (r *reloadReport) normalize() {
	sort.Strings(r.Loaded)
	sort.Strings(r.Stale)
	sort.Strings(r.Quarantined)
	sort.Strings(r.BreakerOpen)
}

// reload runs the load state machine over the store and swaps the
// resulting registry in atomically. Per-name outcomes:
//
//   - load succeeds → fresh entry, breaker closes;
//   - load fails but a last-good summary exists → the entry carries
//     the old summary forward (stale-serving) with the failure
//     attached; estimates keep answering from the last good bytes;
//   - load fails with no last-good → failed entry (fallback serving),
//     and the name's breaker advances — open, reloads stop probing it
//     until half-open;
//   - name quarantined by the store → reported, breaker custody
//     released; never blocks readiness (it needs an operator, not a
//     retry).
//
// The error return is for listing failures and cancellation only — in
// both cases the current registry is left untouched, so a reload can
// only ever improve or freeze the served view, never blank it.
//
// Writers do not wait for a reload. The snapshot is taken before the
// listing, and a name a writer publishes after it keeps the writer's
// entry (registry.merge), whether or not the listing saw the name.
func (s *Server) reload(ctx context.Context) (reloadReport, error) {
	rep := newReloadReport()
	if s.store == nil {
		return rep, nil
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloads.Add(1)

	old := s.reg.snapshot()
	infos, err := s.store.List(ctx)
	if err != nil {
		if errors.Is(err, guard.ErrCanceled) {
			return rep, err
		}
		return rep, fmt.Errorf("listing summaries: %v: %w", err, guard.Unavailable("summary reload", s.retryAfter()))
	}

	next := make(map[string]*entry, len(infos))
	seen := make(map[string]bool, len(infos))
	now := time.Now()

	carryOrFail := func(name string, prev *entry, cause error) *entry {
		if prev != nil && prev.sum != nil {
			rep.Stale = append(rep.Stale, name)
			return &entry{sum: prev.sum, loaded: prev.loaded, loadErr: cause, stale: true}
		}
		return &entry{loadErr: cause, loaded: now}
	}

	for _, info := range infos {
		name := strings.TrimSuffix(info.Name, summarystore.Suffix)
		seen[name] = true
		prev := old[name]

		if info.Quarantined {
			rep.Quarantined = append(rep.Quarantined, name)
			s.breakers.clear(name)
			next[name] = carryOrFail(name, prev, summarystore.QuarantinedError(info.Name))
			continue
		}
		if !s.breakers.allowProbe(name, now) {
			rep.BreakerOpen = append(rep.BreakerOpen, name)
			if prev != nil {
				next[name] = prev
				if prev.stale {
					rep.Stale = append(rep.Stale, name)
				}
			} else {
				next[name] = &entry{loadErr: guard.Unavailable("summary "+name, s.retryAfter()), loaded: now}
			}
			continue
		}

		sum, err := s.store.Load(ctx, info.Name)
		if err == nil {
			s.breakers.clear(name)
			next[name] = &entry{sum: sum, loaded: now}
			rep.Loaded = append(rep.Loaded, name)
			continue
		}
		if errors.Is(err, guard.ErrCanceled) {
			// Abandon the half-built map; the old registry stays live.
			return rep, err
		}
		kind := summarystore.ClassifyError(err)
		rep.Failed[name] = loadFailure{Kind: string(kind), Error: err.Error()}
		if kind == summarystore.KindQuarantined {
			rep.Quarantined = append(rep.Quarantined, name)
			s.breakers.clear(name)
		} else if s.breakers.onFailure(name, now) {
			rep.BreakerOpen = append(rep.BreakerOpen, name)
		}
		s.cfg.Logger.Printf("server: summary %q failed to load (%s): %v", name, kind, err)
		next[name] = carryOrFail(name, prev, err)
	}

	s.breakers.retain(seen)
	s.reg.merge(old, next)
	rep.normalize()
	return rep, nil
}

// retryAfter is the Retry-After hint attached to 503 responses.
func (s *Server) retryAfter() time.Duration {
	if s.cfg.BreakerCooldown > 0 {
		return s.cfg.BreakerCooldown
	}
	return time.Second
}

// resilienceStats summarizes the registry's degradation state.
type resilienceStats struct {
	ok, stale, failed, quarantined int
	breakersOpen                   int
}

func (s *Server) resilience() resilienceStats {
	var st resilienceStats
	for _, e := range s.reg.snapshot() {
		switch {
		case errors.Is(e.loadErr, summarystore.ErrQuarantined):
			st.quarantined++
		case e.stale:
			st.stale++
		case e.loadErr != nil:
			st.failed++
		default:
			st.ok++
		}
	}
	st.breakersOpen = len(s.breakers.openNames())
	return st
}

// ready is the readiness predicate: startup completed and every
// non-quarantined summary is fresh. Quarantined names never block —
// they are an operator problem that retrying cannot fix, and the rest
// of the store is serving correctly.
func (s *Server) ready() (bool, resilienceStats) {
	st := s.resilience()
	return s.startupDone.Load() && st.failed == 0 && st.stale == 0 && st.breakersOpen == 0, st
}
