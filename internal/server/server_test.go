package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathest"
	"xpathest/internal/guard"
)

const testXML = `<site><people><person><name>a</name></person><person><name>b</name></person></people><items><item/><item/><item/></items></site>`

func summaryBytes(t testing.TB) []byte {
	t.Helper()
	d, err := xpathest.ParseDocumentString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.BuildSummary(xpathest.SummaryOptions{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode, m
}

func do(t *testing.T, method, url string, body io.Reader) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

// TestCrashResistance is the acceptance scenario of the hardened
// serving layer: one server process survives — in a single lifetime —
// a deep-nested XML bomb, a corrupt summary upload, a malformed query,
// a client-canceled request, and a handler panic, then shuts down
// gracefully.
func TestCrashResistance(t *testing.T) {
	s := startServer(t, Config{
		Limits: guard.Limits{
			MaxDepth:         64,
			MaxElements:      10_000,
			MaxDocumentBytes: 1 << 20,
			MaxSummaryBytes:  1 << 20,
			MaxQueryLen:      256,
		},
		RequestTimeout:   5 * time.Second,
		EnablePanicRoute: true,
	})
	base := "http://" + s.Addr()

	// A genuine summary so the happy path works throughout.
	code, _ := do(t, "PUT", base+"/summaries/good", bytes.NewReader(summaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("genuine upload: status %d", code)
	}

	// (1) Deep-nested XML bomb: rejected with 413, process alive.
	bomb := strings.Repeat("<a>", 5000) + strings.Repeat("</a>", 5000)
	code, m := do(t, "POST", base+"/summarize?name=bomb", strings.NewReader(bomb))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("XML bomb: status %d body %v", code, m)
	}

	// (2) Corrupt summary upload: rejected with 400, process alive.
	corrupt := summaryBytes(t)
	corrupt[len(corrupt)-1] ^= 0xFF
	code, m = do(t, "PUT", base+"/summaries/bad", bytes.NewReader(corrupt))
	if code != http.StatusBadRequest || m["kind"] != "corrupt_summary" {
		t.Fatalf("corrupt upload: status %d body %v", code, m)
	}

	// (3) Malformed query: 400 with the malformed_query kind.
	code, m = get(t, base+"/estimate?summary=good&q="+`//[[[`)
	if code != http.StatusBadRequest || m["kind"] != "malformed_query" {
		t.Fatalf("malformed query: status %d body %v", code, m)
	}

	// Oversized query: 413.
	code, _ = get(t, base+"/estimate?summary=good&q=//"+strings.Repeat("a/", 200)+"b")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query: status %d", code)
	}

	// (4) Client-canceled request: the client gives up mid-body; the
	// server must shrug it off.
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", base+"/summarize?name=slow", pr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("<root><a>"))
	time.Sleep(50 * time.Millisecond)
	cancel()
	pw.CloseWithError(context.Canceled)
	<-done

	// (5) Handler panic: structured 500, process alive.
	code, m = do(t, "POST", base+"/debug/panic", nil)
	if code != http.StatusInternalServerError || m["kind"] != "internal" {
		t.Fatalf("panic route: status %d body %v", code, m)
	}

	// After all of the above, the same process still serves estimates.
	code, m = get(t, base+"/estimate?summary=good&q=//person")
	if code != http.StatusOK {
		t.Fatalf("post-abuse estimate: status %d body %v", code, m)
	}
	if m["fallback"] == true {
		t.Fatalf("healthy summary served fallback: %v", m)
	}
	if est, ok := m["estimate"].(float64); !ok || est <= 0 {
		t.Fatalf("estimate missing or non-positive: %v", m)
	}
	code, m = get(t, base+"/healthz")
	if code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthz after abuse: %d %v", code, m)
	}
	if n, _ := m["panics_recovered"].(float64); n < 1 {
		t.Fatalf("healthz did not count the recovered panic: %v", m)
	}

	// Graceful shutdown with an in-flight request: the slow upload
	// started before Shutdown must complete with 200.
	pr2, pw2 := io.Pipe()
	req2, _ := http.NewRequest("POST", base+"/summarize?name=drain", pr2)
	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req2)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		resCh <- result{code: resp.StatusCode}
	}()
	pw2.Write([]byte("<root><a>x</a>"))
	time.Sleep(50 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown() }()
	// Finish streaming while the server is draining.
	time.Sleep(50 * time.Millisecond)
	pw2.Write([]byte("<b>y</b></root>"))
	pw2.Close()

	if r := <-resCh; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code %d err %v", r.code, r.err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// And the listener really is closed now.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestGracefulDegradation: a corrupt summary file in the directory
// degrades that name to explicit low-confidence fallback estimates —
// it does not fail reload, and healthy names are unaffected.
func TestGracefulDegradation(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	if err := os.WriteFile(filepath.Join(dir, "healthy.xpsum"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/2] ^= 0x55
	if err := os.WriteFile(filepath.Join(dir, "broken.xpsum"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{SummaryDir: dir})
	base := "http://" + s.Addr()

	// The healthy summary estimates normally.
	code, m := get(t, base+"/estimate?summary=healthy&q=//item")
	if code != http.StatusOK || m["fallback"] == true {
		t.Fatalf("healthy: %d %v", code, m)
	}

	// The broken one answers — with the explicit fallback contract.
	code, m = get(t, base+"/estimate?summary=broken&q=//item")
	if code != http.StatusOK {
		t.Fatalf("broken: status %d %v", code, m)
	}
	if m["fallback"] != true || m["confidence"] != "low" {
		t.Fatalf("broken summary did not degrade explicitly: %v", m)
	}
	if _, ok := m["estimate"].(float64); !ok {
		t.Fatalf("fallback carries no numeric estimate: %v", m)
	}

	// So does a name that was never loaded.
	code, m = get(t, base+"/estimate?summary=nonexistent&q=//item")
	if code != http.StatusOK || m["fallback"] != true {
		t.Fatalf("missing summary: %d %v", code, m)
	}

	// But a malformed query on a degraded name is still the client's
	// error — degradation never masks bad queries. That includes a
	// query that parses but has no query tree: its order axis follows
	// a descendant step, so it cannot be anchored.
	for _, q := range []string{"[[[", "//item//name/folls::x"} {
		code, m = get(t, base+"/estimate?summary=broken&q="+url.QueryEscape(q))
		if code != http.StatusBadRequest || m["kind"] != "malformed_query" {
			t.Fatalf("malformed query %q on degraded name: %d %v", q, code, m)
		}
	}

	// /summaries reports both, with status.
	code, m = get(t, base+"/summaries")
	if code != http.StatusOK {
		t.Fatalf("/summaries: %d", code)
	}
	items, _ := m["summaries"].([]any)
	status := map[string]string{}
	for _, it := range items {
		o := it.(map[string]any)
		status[o["name"].(string)], _ = o["status"].(string)
	}
	if status["healthy"] != "ok" || status["broken"] != "failed" {
		t.Fatalf("unexpected statuses: %v", status)
	}

	// Fixing the file and reloading heals the name atomically.
	if err := os.WriteFile(filepath.Join(dir, "broken.xpsum"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	code, m = do(t, "POST", base+"/reload", nil)
	if code != http.StatusOK {
		t.Fatalf("/reload: %d %v", code, m)
	}
	code, m = get(t, base+"/estimate?summary=broken&q=//item")
	if code != http.StatusOK || m["fallback"] == true {
		t.Fatalf("healed summary still degraded: %d %v", code, m)
	}
}

// TestHotReloadUnderLoad hammers /estimate from several goroutines
// while the registry is swapped repeatedly; run with -race this proves
// the atomic-swap registry needs no reader locks.
func TestHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	good := summaryBytes(t)
	if err := os.WriteFile(filepath.Join(dir, "s.xpsum"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{SummaryDir: dir, MaxInFlight: 32})
	base := "http://" + s.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/estimate?summary=s&q=//person")
				if err != nil {
					t.Errorf("estimate during reload: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("estimate during reload: status %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		code, m := do(t, "POST", base+"/reload", nil)
		if code != http.StatusOK {
			t.Fatalf("reload %d: %d %v", i, code, m)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadShedding: with MaxInFlight 1 and one request parked in the
// handler, the next request sheds with 503 instead of queuing.
func TestLoadShedding(t *testing.T) {
	s := startServer(t, Config{MaxInFlight: 1, RequestTimeout: 5 * time.Second})
	base := "http://" + s.Addr()

	pr, pw := io.Pipe()
	req, _ := http.NewRequest("POST", base+"/summarize?name=park", pr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("<root>"))
	time.Sleep(100 * time.Millisecond) // let the slot fill

	code, m := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d %v", code, m)
	}
	if m["kind"] != "unavailable" {
		t.Fatalf("shed response kind: %v", m)
	}

	// Liveness is exempt from admission control: at capacity the
	// process must still prove it is alive, or the orchestrator kills
	// a server that is merely busy.
	if code, m := get(t, base+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("/healthz/live shed at capacity: %d %v", code, m)
	}

	pw.Write([]byte("</root>"))
	pw.Close()
	<-done

	// The slot freed; requests flow again.
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("after shed: %d", code)
	}
}

// TestRequestTimeout: a handler whose input stalls past the deadline
// ends with a timeout classification rather than hanging forever.
func TestRequestTimeout(t *testing.T) {
	s := startServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	base := "http://" + s.Addr()

	pr, pw := io.Pipe()
	defer pw.Close()
	req, _ := http.NewRequest("POST", base+"/summarize?name=stall", pr)
	go func() {
		pw.Write([]byte("<root><a>"))
		// ...and never finish.
	}()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// The server may cut the connection when the deadline fires
		// mid-read; that is an acceptable surfacing of the timeout.
		if time.Since(start) > 3*time.Second {
			t.Fatalf("stalled request not bounded by deadline: %v", err)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled request: status %d", resp.StatusCode)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline did not bound the stalled request")
	}
}

// TestSummarizeDocumentErrors: a document the parser refuses is the
// client's fault (400 malformed_document), an XML declaration of
// another version or encoding included, and a body over
// MaxDocumentBytes is cut by the server's body limit (413).
func TestSummarizeDocumentErrors(t *testing.T) {
	wellFormed := "<r>" + strings.Repeat("<a>text</a>", 27) + "</r>"
	for _, c := range []struct {
		name, doc string
		maxBytes  int64
		code      int
		kind      string
	}{
		{"unclosed", "<a><b>unclosed", 0, http.StatusBadRequest, "malformed_document"},
		{"version", `<?xml version="1.1"?><a><b/></a>`, 0, http.StatusBadRequest, "malformed_document"},
		{"encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><a><b/></a>`, 0, http.StatusBadRequest, "malformed_document"},
		{"body limit", wellFormed, 64, http.StatusRequestEntityTooLarge, "limit_exceeded"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := startServer(t, Config{Limits: guard.Limits{MaxDocumentBytes: c.maxBytes}})
			code, m := do(t, "POST", "http://"+s.Addr()+"/summarize?name=doc", strings.NewReader(c.doc))
			if code != c.code || m["kind"] != c.kind {
				t.Fatalf("%d-byte document: status %d body %v, want %d %s", len(c.doc), code, m, c.code, c.kind)
			}
		})
	}
}

// TestUploadValidName rejects traversal-style names outright.
func TestUploadValidName(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	for _, name := range []string{"..", "a/b", "a%2Fb", strings.Repeat("x", 200)} {
		code, _ := do(t, "PUT", base+"/summaries/"+name, bytes.NewReader(summaryBytes(t)))
		if code != http.StatusBadRequest && code != http.StatusNotFound &&
			code != http.StatusMovedPermanently {
			t.Fatalf("name %q: status %d", name, code)
		}
	}
}

// TestFallbackEstimateValue: the configured fallback value is what
// degraded names answer.
func TestFallbackEstimateValue(t *testing.T) {
	s := startServer(t, Config{FallbackEstimate: 42.5})
	base := "http://" + s.Addr()
	code, m := get(t, base+"/estimate?summary=nope&q=//a")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if est, _ := m["estimate"].(float64); est != 42.5 {
		t.Fatalf("fallback estimate = %v, want 42.5", m["estimate"])
	}
	if fmt.Sprint(m["reason"]) == "" {
		t.Fatalf("fallback without reason: %v", m)
	}
}
