package server

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"

	"xpathest"
)

// altXML has a different //people//person cardinality than testXML, so
// a cached estimate served after the upload below would be visibly
// wrong.
const altXML = `<site><people><person><name>a</name></person><person><name>b</name></person><person><name>c</name></person><person><name>d</name></person></people><items><item/></items></site>`

func altSummaryBytes(t testing.TB) []byte {
	t.Helper()
	d, err := xpathest.ParseDocumentString(altXML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.BuildSummary(xpathest.SummaryOptions{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultCacheCoherence proves the summary keying end to end:
// estimate (fills the cache), hit it again (served from cache),
// replace the summary under the same name, estimate again — the new
// summary has a new ID, so the cached value is unreachable and the
// answer reflects the new summary.
func TestResultCacheCoherence(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{SummaryDir: dir})
	base := "http://" + s.Addr()

	code, _ := do(t, http.MethodPut, base+"/summaries/s", bytes.NewReader(summaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("upload: %d", code)
	}

	estimate := func() float64 {
		code, m := get(t, base+"/estimate?summary=s&q=//people//person")
		if code != http.StatusOK {
			t.Fatalf("estimate: %d %v", code, m)
		}
		return m["estimate"].(float64)
	}
	first := estimate()
	if first != 2 {
		t.Fatalf("first estimate = %v, want 2", first)
	}
	hitsBefore, _, _ := s.results.Stats()
	if again := estimate(); again != first {
		t.Fatalf("repeat estimate = %v, want %v", again, first)
	}
	hitsAfter, _, _ := s.results.Stats()
	if hitsAfter != hitsBefore+1 {
		t.Fatalf("repeat estimate did not hit the cache: hits %d -> %d", hitsBefore, hitsAfter)
	}

	// Same name, different document: the upload publishes a new
	// summary, which none of the cached estimates belong to.
	code, _ = do(t, http.MethodPut, base+"/summaries/s", bytes.NewReader(altSummaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("re-upload: %d", code)
	}
	if v := estimate(); v != 4 {
		t.Fatalf("estimate after replacement = %v, want 4 (stale cache?)", v)
	}

	// And a /reload pass (which loads the file as yet another summary)
	// must keep answers correct too.
	if code, m := do(t, http.MethodPost, base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("reload: %d %v", code, m)
	}
	if v := estimate(); v != 4 {
		t.Fatalf("estimate after reload = %v, want 4", v)
	}

	// The counters surface on /healthz.
	if _, m := get(t, base+"/healthz"); m["result_cache_hits"] == nil || m["result_cache_misses"] == nil || m["result_cache_evictions"] == nil {
		t.Fatal("healthz missing result cache counters")
	}
}

// TestResultCacheScope pins that a cached estimate lives as long as
// the summary it was computed on: an upload to another name, and a
// reload that carries the name's summary forward as stale, both leave
// it a hit.
func TestResultCacheScope(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, fastStore(Config{SummaryDir: dir}))
	base := "http://" + s.Addr()

	for _, name := range []string{"a", "b"} {
		if code, m := do(t, http.MethodPut, base+"/summaries/"+name, bytes.NewReader(summaryBytes(t))); code != http.StatusOK {
			t.Fatalf("upload %s: %d %v", name, code, m)
		}
	}
	hits := func() float64 {
		t.Helper()
		_, m := get(t, base+"/healthz")
		return m["result_cache_hits"].(float64)
	}
	estimateA := func() {
		t.Helper()
		if v := estimateOf(t, base, "a", "//people//person"); v != 2 {
			t.Fatalf("estimate of a = %v, want 2", v)
		}
	}
	estimateA()

	if code, m := do(t, http.MethodPut, base+"/summaries/b", bytes.NewReader(altSummaryBytes(t))); code != http.StatusOK {
		t.Fatalf("upload b: %d %v", code, m)
	}
	before := hits()
	estimateA()
	if after := hits(); after != before+1 {
		t.Fatalf("an upload to b made a's cached estimate miss: hits %v -> %v", before, after)
	}

	corruptFile(t, filepath.Join(dir, "a.xpsum"))
	code, m := do(t, http.MethodPost, base+"/reload", nil)
	if code != http.StatusOK {
		t.Fatalf("reload: %d %v", code, m)
	}
	if stale, _ := m["stale"].([]any); len(stale) != 1 || stale[0] != "a" {
		t.Fatalf("reload stale = %v, want [a]", m["stale"])
	}
	before = hits()
	estimateA()
	if after := hits(); after != before+1 {
		t.Fatalf("a reload carrying a forward made its cached estimate miss: hits %v -> %v", before, after)
	}
}

// TestResultCacheDisabled pins the negative-budget escape hatch: the
// server runs with a nil cache and still answers correctly.
func TestResultCacheDisabled(t *testing.T) {
	s := startServer(t, Config{ResultCacheBytes: -1})
	base := "http://" + s.Addr()
	if s.results != nil {
		t.Fatal("negative ResultCacheBytes still built a cache")
	}
	code, _ := do(t, http.MethodPut, base+"/summaries/s", bytes.NewReader(summaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("upload: %d", code)
	}
	for i := 0; i < 2; i++ {
		code, m := get(t, base+"/estimate?summary=s&q=//people//person")
		if code != http.StatusOK || m["estimate"].(float64) != 2 {
			t.Fatalf("estimate %d: %d %v", i, code, m)
		}
	}
	if _, m := get(t, base+"/healthz"); m["result_cache_hits"].(float64) != 0 {
		t.Fatal("disabled cache reported hits")
	}
}

// TestResultCacheBatchShared pins that /estimate and /estimate/batch
// share one cache: a value computed by one endpoint is a hit for the
// other.
func TestResultCacheBatchShared(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	code, _ := do(t, http.MethodPut, base+"/summaries/s", bytes.NewReader(summaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("upload: %d", code)
	}
	if code, m := get(t, base+"/estimate?summary=s&q=//items/item"); code != http.StatusOK {
		t.Fatalf("estimate: %d %v", code, m)
	}
	hitsBefore, _, _ := s.results.Stats()
	body := bytes.NewReader([]byte(`{"summary":"s","queries":["//items/item"]}`))
	code, m := do(t, http.MethodPost, base+"/estimate/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, m)
	}
	hitsAfter, _, _ := s.results.Stats()
	if hitsAfter != hitsBefore+1 {
		t.Fatalf("batch did not hit the /estimate-filled cache: hits %d -> %d", hitsBefore, hitsAfter)
	}
	results := m["results"].([]any)
	if est := results[0].(map[string]any)["estimate"].(float64); est != 3 {
		t.Fatalf("batch estimate = %v, want 3", est)
	}
}
