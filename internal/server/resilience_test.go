package server

import (
	"bytes"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpathest"
	"xpathest/internal/summarystore"
)

// flakyFS wraps a summarystore FS and fails Open for chosen names —
// a deterministic per-file I/O fault for reload classification tests.
type flakyFS struct {
	summarystore.FS
	deny map[string]bool
}

func (f *flakyFS) Open(name string) (fs.File, error) {
	if f.deny[name] {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	return f.FS.Open(name)
}

// gateFS wraps a summarystore FS. Once armed, the next Open signals
// entered and waits for release: a reload parked inside its loads.
type gateFS struct {
	summarystore.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *gateFS) Open(name string) (fs.File, error) {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.FS.Open(name)
}

// fastStore returns Config fields that keep store retries negligible.
func fastStore(cfg Config) Config {
	cfg.StoreReadRetries = 1
	cfg.StoreBackoffBase = time.Microsecond
	cfg.StoreBackoffMax = 10 * time.Microsecond
	return cfg
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadReportsReasons: /reload distinguishes corrupt, I/O and
// quarantined failures per name instead of one flat "failed" list.
func TestReloadReportsReasons(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	for _, n := range []string{"fine", "rot", "flaky"} {
		if err := os.WriteFile(filepath.Join(dir, n+".xpsum"), good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// "isolated" was quarantined by a previous process: only the
	// .quarantine file remains.
	if err := os.WriteFile(filepath.Join(dir, "isolated.xpsum.quarantine"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	fsys := &flakyFS{FS: summarystore.Dir(dir), deny: map[string]bool{}}
	cfg := fastStore(Config{Addr: "127.0.0.1:0", SummaryDir: dir, StoreFS: fsys})
	cfg.QuarantineAfter = 99
	cfg.BreakerThreshold = 99
	s := startServer(t, cfg)
	base := "http://" + s.Addr()

	// All three live names loaded at startup. Now rot one on disk,
	// deny I/O on another, and reload.
	corruptFile(t, filepath.Join(dir, "rot.xpsum"))
	fsys.deny["flaky.xpsum"] = true
	code, m := do(t, "POST", base+"/reload", nil)
	if code != http.StatusOK {
		t.Fatalf("/reload: %d %v", code, m)
	}
	failed, _ := m["failed"].(map[string]any)
	kindOf := func(name string) string {
		f, _ := failed[name].(map[string]any)
		k, _ := f["kind"].(string)
		return k
	}
	if k := kindOf("rot"); k != "corrupt" {
		t.Fatalf("rot reported %q, want corrupt (failed=%v)", k, failed)
	}
	if k := kindOf("flaky"); k != "io" {
		t.Fatalf("flaky reported %q, want io (failed=%v)", k, failed)
	}
	if _, ok := failed["fine"]; ok {
		t.Fatalf("healthy name in failed map: %v", failed)
	}
	quarantined, _ := m["quarantined"].([]any)
	if len(quarantined) != 1 || quarantined[0] != "isolated" {
		t.Fatalf("quarantined = %v, want [isolated]", quarantined)
	}
	loaded, _ := m["loaded"].([]any)
	found := false
	for _, n := range loaded {
		if n == "fine" {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthy name missing from loaded: %v", loaded)
	}
	// Both failing names loaded at startup, so they keep serving stale.
	stale, _ := m["stale"].([]any)
	if len(stale) != 2 || stale[0] != "flaky" || stale[1] != "rot" {
		t.Fatalf("stale = %v, want [flaky rot]", stale)
	}
}

// TestStaleServing: when a loaded summary's file rots, reload keeps
// the last-good version serving — same estimate value, marked stale —
// and readiness reports degraded until the file is repaired.
func TestStaleServing(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	path := filepath.Join(dir, "s.xpsum")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, fastStore(Config{Addr: "127.0.0.1:0", SummaryDir: dir}))
	base := "http://" + s.Addr()

	code, m := get(t, base+"/estimate?summary=s&q=//item")
	if code != http.StatusOK || m["fallback"] == true {
		t.Fatalf("healthy estimate: %d %v", code, m)
	}
	want := m["estimate"].(float64)

	if code, m := get(t, base+"/healthz/ready"); code != http.StatusOK {
		t.Fatalf("ready while healthy: %d %v", code, m)
	}

	corruptFile(t, path)
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("/reload: %d %v", code, m)
	}

	// Still serving — the last-good version, bit-identical, marked.
	code, m = get(t, base+"/estimate?summary=s&q=//item")
	if code != http.StatusOK {
		t.Fatalf("stale estimate: %d %v", code, m)
	}
	if m["fallback"] == true {
		t.Fatalf("stale serving fell back: %v", m)
	}
	if m["estimate"].(float64) != want {
		t.Fatalf("stale estimate drifted: %v vs %v", m["estimate"], want)
	}
	if m["stale"] != true {
		t.Fatalf("stale answer not marked: %v", m)
	}

	// Readiness degrades; liveness does not.
	code, m = get(t, base+"/healthz/ready")
	if code != http.StatusServiceUnavailable || m["summaries_stale"].(float64) != 1 {
		t.Fatalf("ready while stale: %d %v", code, m)
	}
	if code, _ := get(t, base+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("liveness failed during degradation: %d", code)
	}
	code, m = get(t, base+"/summaries")
	if code != http.StatusOK {
		t.Fatalf("/summaries: %d", code)
	}
	items, _ := m["summaries"].([]any)
	if st, _ := items[0].(map[string]any)["status"].(string); st != "stale" {
		t.Fatalf("summary status %q, want stale", st)
	}

	// Repair converges within one reload.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("repair reload: %d %v", code, m)
	}
	if code, m := get(t, base+"/healthz/ready"); code != http.StatusOK {
		t.Fatalf("not ready after repair: %d %v", code, m)
	}
	code, m = get(t, base+"/estimate?summary=s&q=//item")
	if m["stale"] == true || m["estimate"].(float64) != want {
		t.Fatalf("post-repair estimate: %d %v", code, m)
	}
}

// TestBreakerOpensAndRecovers: a never-loaded name trips its breaker
// after BreakerThreshold consecutive failures; /estimate then answers
// 503 + Retry-After instead of fallback guesses; the next reload is a
// half-open probe that heals the name once the file is fixed.
func TestBreakerOpensAndRecovers(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	path := filepath.Join(dir, "b.xpsum")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, path)

	cfg := fastStore(Config{Addr: "127.0.0.1:0", SummaryDir: dir})
	cfg.BreakerThreshold = 2
	cfg.QuarantineAfter = 99 // keep quarantine out of this test
	s := startServer(t, cfg)
	base := "http://" + s.Addr()

	// One failure so far (startup): below threshold — fallback contract.
	code, m := get(t, base+"/estimate?summary=b&q=//item")
	if code != http.StatusOK || m["fallback"] != true {
		t.Fatalf("pre-breaker estimate: %d %v", code, m)
	}

	// Second failure opens the breaker.
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("/reload: %d %v", code, m)
	}
	resp, err := http.Get(base + "/estimate?summary=b&q=//item")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open estimate: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After: %q", ra)
	}
	code, m = get(t, base+"/healthz/ready")
	if code != http.StatusServiceUnavailable || m["breakers_open"].(float64) != 1 {
		t.Fatalf("readiness with open breaker: %d %v", code, m)
	}

	// With zero cooldown every reload half-open probes; fixing the
	// file heals the name in one pass.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("repair reload: %d %v", code, m)
	}
	code, m = get(t, base+"/estimate?summary=b&q=//item")
	if code != http.StatusOK || m["fallback"] == true || m["stale"] == true {
		t.Fatalf("healed estimate: %d %v", code, m)
	}
	if code, m := get(t, base+"/healthz/ready"); code != http.StatusOK {
		t.Fatalf("not ready after heal: %d %v", code, m)
	}
}

// TestQuarantineNonBlocking: a quarantined name is reported on
// /healthz/ready but does not block readiness — it needs an operator,
// not a restart — and uploading a fresh summary repairs it.
func TestQuarantineNonBlocking(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	path := filepath.Join(dir, "q.xpsum")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, path)

	cfg := fastStore(Config{Addr: "127.0.0.1:0", SummaryDir: dir})
	cfg.QuarantineAfter = 1
	s := startServer(t, cfg)
	base := "http://" + s.Addr()

	code, m := get(t, base+"/healthz/ready")
	if code != http.StatusOK {
		t.Fatalf("quarantine blocked readiness: %d %v", code, m)
	}
	if m["summaries_quarantined"].(float64) != 1 {
		t.Fatalf("quarantine not reported: %v", m)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}

	// The name serves the fallback contract (no last-good version).
	code, m = get(t, base+"/estimate?summary=q&q=//item")
	if code != http.StatusOK || m["fallback"] != true {
		t.Fatalf("quarantined estimate: %d %v", code, m)
	}

	// Upload repairs: fresh bytes under the same name, quarantine
	// cleared, next reload loads it.
	code, m = do(t, "PUT", base+"/summaries/q", bytes.NewReader(good))
	if code != http.StatusOK {
		t.Fatalf("upload: %d %v", code, m)
	}
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("/reload: %d %v", code, m)
	}
	code, m = get(t, base+"/estimate?summary=q&q=//item")
	if code != http.StatusOK || m["fallback"] == true {
		t.Fatalf("repaired estimate: %d %v", code, m)
	}
	code, m = get(t, base+"/healthz/ready")
	if code != http.StatusOK || m["summaries_quarantined"].(float64) != 0 {
		t.Fatalf("after repair: %d %v", code, m)
	}
}

// TestHealthzSplitWithoutStore: a storeless server is live and ready
// immediately.
func TestHealthzSplitWithoutStore(t *testing.T) {
	s := startServer(t, Config{Addr: "127.0.0.1:0"})
	base := "http://" + s.Addr()
	if code, m := get(t, base+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("/healthz/live: %d %v", code, m)
	}
	if code, m := get(t, base+"/healthz/ready"); code != http.StatusOK {
		t.Fatalf("/healthz/ready: %d %v", code, m)
	}
}

// TestReloadKeepsConcurrentWrites: a /summarize of a new name and a
// /delta of a document-backed name that publish while a reload loads
// its files survive the reload's publication. Both keep serving their
// own estimates and keep accepting deltas.
func TestReloadKeepsConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	fsys := &gateFS{FS: summarystore.Dir(dir), entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fsys.release) }) }
	t.Cleanup(release)
	s := startServer(t, fastStore(Config{SummaryDir: dir, StoreFS: fsys}))
	base := "http://" + s.Addr()

	doc := `<r><a><c/></a><a><c/></a><b><c/></b></r>`
	if code, m := do(t, http.MethodPost, base+"/summarize?name=live", bytes.NewReader([]byte(doc))); code != http.StatusOK {
		t.Fatalf("summarize live: %d %v", code, m)
	}

	fsys.armed.Store(true)
	reloaded := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/reload", "", nil)
		if err != nil {
			t.Errorf("reload: %v", err)
			reloaded <- 0
			return
		}
		resp.Body.Close()
		reloaded <- resp.StatusCode
	}()
	select {
	case <-fsys.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("reload never opened a file")
	}

	// The reload is parked in its first load: publish under it.
	if code, m := do(t, http.MethodPost, base+"/summarize?name=fresh", bytes.NewReader([]byte(doc))); code != http.StatusOK {
		t.Fatalf("summarize fresh: %d %v", code, m)
	}
	insert := encodeScript(t, xpathest.EditScript{Ops: []xpathest.EditOp{
		{Insert: true, Loc: []int{}, Index: 1, XML: "<a><c></c></a>"},
	}})
	if code, m := do(t, http.MethodPost, base+"/delta/live", bytes.NewReader(insert)); code != http.StatusOK {
		t.Fatalf("delta live: %d %v", code, m)
	}
	release()
	if code := <-reloaded; code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}

	if v := estimateOf(t, base, "fresh", "//c"); v != 3 {
		t.Fatalf("fresh //c = %v after the reload, want 3", v)
	}
	if v := estimateOf(t, base, "live", "//c"); v != 4 {
		t.Fatalf("live //c = %v after the reload, want 4 (the delta was lost)", v)
	}
	for _, name := range []string{"fresh", "live"} {
		if code, m := do(t, http.MethodPost, base+"/delta/"+name, bytes.NewReader(insert)); code != http.StatusOK {
			t.Fatalf("delta %s after the reload: %d %v", name, code, m)
		}
	}
}
