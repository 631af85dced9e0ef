package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"xpathest"
	"xpathest/internal/guard"
)

func encodeScript(t *testing.T, sc xpathest.EditScript) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func estimateOf(t *testing.T, base, name, q string) float64 {
	t.Helper()
	code, m := get(t, base+"/estimate?summary="+name+"&q="+q)
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d body %v", code, m)
	}
	if m["fallback"] == true {
		t.Fatalf("estimate served fallback: %v", m)
	}
	v, ok := m["estimate"].(float64)
	if !ok {
		t.Fatalf("estimate payload %v", m)
	}
	return v
}

// TestDeltaEndpoint drives the full lifecycle: summarize a document,
// apply an edit script through POST /delta, and watch the served
// estimates move to the edited document — including the cached path,
// which the successor summary's new ID must bypass.
func TestDeltaEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	doc := `<r><a><c/></a><a><c/></a><b><c/></b></r>`
	code, m := do(t, "POST", base+"/summarize?name=live", bytes.NewReader([]byte(doc)))
	if code != http.StatusOK {
		t.Fatalf("summarize: status %d body %v", code, m)
	}

	// Prime the result cache with the pre-edit estimate.
	before := estimateOf(t, base, "live", "//c")
	if before != 3 {
		t.Fatalf("pre-edit //c estimate %v, want 3", before)
	}

	// Duplicate the first <a> subtree: one more //c match.
	sc := xpathest.EditScript{Ops: []xpathest.EditOp{
		{Insert: true, Loc: []int{}, Index: 1, XML: "<a><c></c></a>"},
	}}
	code, m = do(t, "POST", base+"/delta/live", bytes.NewReader(encodeScript(t, sc)))
	if code != http.StatusOK {
		t.Fatalf("delta: status %d body %v", code, m)
	}
	if m["status"] != "applied" || m["ops"] != float64(1) {
		t.Fatalf("delta payload %v", m)
	}
	if m["fast_ops"].(float64)+m["rebuild_ops"].(float64) != 1 {
		t.Fatalf("route counts %v", m)
	}
	if m["epoch"] != float64(1) {
		t.Fatalf("epoch %v, want 1", m["epoch"])
	}
	if m["elements"] != float64(9) {
		t.Fatalf("elements %v, want 9", m["elements"])
	}

	// The served estimate must reflect the edit immediately — a stale
	// result-cache hit of the pre-edit summary would still say 3.
	after := estimateOf(t, base, "live", "//c")
	if after != 4 {
		t.Fatalf("post-edit //c estimate %v, want 4", after)
	}

	// A second script applies to the already-edited summary.
	sc = xpathest.EditScript{Ops: []xpathest.EditOp{{Loc: []int{1}}}}
	if code, m = do(t, "POST", base+"/delta/live", bytes.NewReader(encodeScript(t, sc))); code != http.StatusOK {
		t.Fatalf("second delta: status %d body %v", code, m)
	}
	if m["epoch"] != float64(2) {
		t.Fatalf("second delta epoch %v, want 2", m["epoch"])
	}
	if got := estimateOf(t, base, "live", "//c"); got != 3 {
		t.Fatalf("post-delete //c estimate %v, want 3", got)
	}
}

// TestDeltaRejections pins the endpoint's error taxonomy: unknown
// names, uploaded (document-less) summaries, malformed streams, and
// scripts with invalid ops.
func TestDeltaRejections(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	okScript := encodeScript(t, xpathest.EditScript{Ops: []xpathest.EditOp{{Loc: []int{0}}}})

	code, m := do(t, "POST", base+"/delta/ghost", bytes.NewReader(okScript))
	if code != http.StatusNotFound || m["kind"] != "not_found" {
		t.Fatalf("unknown name: status %d body %v", code, m)
	}

	if code, _ = do(t, "POST", base+"/delta/b%61d..name", bytes.NewReader(okScript)); code != http.StatusBadRequest {
		t.Fatalf("invalid name: status %d", code)
	}

	// Uploaded summaries carry no document and cannot take deltas.
	if code, m = do(t, "PUT", base+"/summaries/uploaded", bytes.NewReader(summaryBytes(t))); code != http.StatusOK {
		t.Fatalf("upload: status %d body %v", code, m)
	}
	code, m = do(t, "POST", base+"/delta/uploaded", bytes.NewReader(okScript))
	if code != http.StatusBadRequest || m["kind"] != "invalid_argument" {
		t.Fatalf("document-less delta: status %d body %v", code, m)
	}

	// A garbage stream fails decoding before any registry access.
	code, m = do(t, "POST", base+"/delta/uploaded", bytes.NewReader([]byte("not a delta stream")))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage stream: status %d body %v", code, m)
	}

	// A structurally valid script whose op is invalid for the document
	// (delete of a nonexistent child) is rejected and the summary keeps
	// serving.
	if code, _ = do(t, "POST", base+"/summarize?name=live", bytes.NewReader([]byte(`<r><a/></r>`))); code != http.StatusOK {
		t.Fatal("summarize failed")
	}
	bad := encodeScript(t, xpathest.EditScript{Ops: []xpathest.EditOp{{Loc: []int{7}}}})
	code, m = do(t, "POST", base+"/delta/live", bytes.NewReader(bad))
	if code != http.StatusBadRequest {
		t.Fatalf("bad op: status %d body %v", code, m)
	}
	if got := estimateOf(t, base, "live", "/r/a"); got != 1 {
		t.Fatalf("post-rejection estimate %v, want 1", got)
	}
}

// TestDeltaPersistsThroughStore verifies the maintained summary is
// written back to the durable store: a reload from disk serves the
// post-edit estimates.
func TestDeltaPersistsThroughStore(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{SummaryDir: dir})
	base := "http://" + s.Addr()

	if code, m := do(t, "POST", base+"/summarize?name=live", bytes.NewReader([]byte(`<r><a/><a/></r>`))); code != http.StatusOK {
		t.Fatalf("summarize: status %d body %v", code, m)
	}
	sc := encodeScript(t, xpathest.EditScript{Ops: []xpathest.EditOp{
		{Insert: true, Loc: []int{}, Index: 2, XML: "<a></a>"},
	}})
	if code, m := do(t, "POST", base+"/delta/live", bytes.NewReader(sc)); code != http.StatusOK {
		t.Fatalf("delta: status %d body %v", code, m)
	}

	// Reload replaces the registry from disk; the stored file must hold
	// the post-edit summary. (The reloaded entry is document-less: the
	// document lives in the serving process, not the store.)
	if code, m := do(t, "POST", base+"/reload", nil); code != http.StatusOK {
		t.Fatalf("reload: status %d body %v", code, m)
	}
	if got := estimateOf(t, base, "live", "//a"); got != 3 {
		t.Fatalf("reloaded //a estimate %v, want 3", got)
	}
}

// TestDeltaOversizedScript pins the byte cap: a script larger than
// the configured document limit is rejected with 413 before any
// registry access.
func TestDeltaOversizedScript(t *testing.T) {
	s := startServer(t, Config{Limits: guard.Limits{MaxDocumentBytes: 64}})
	base := "http://" + s.Addr()

	var big bytes.Buffer
	fmt.Fprint(&big, "<a>")
	for i := 0; i < 40; i++ {
		fmt.Fprint(&big, "<b></b>")
	}
	fmt.Fprint(&big, "</a>")
	sc := encodeScript(t, xpathest.EditScript{Ops: []xpathest.EditOp{
		{Insert: true, Loc: []int{0}, XML: big.String()},
	}})
	if len(sc) <= 64 {
		t.Fatalf("test script unexpectedly small: %d bytes", len(sc))
	}
	code, m := do(t, "POST", base+"/delta/ghost", bytes.NewReader(sc))
	if code != http.StatusRequestEntityTooLarge || m["kind"] != "limit_exceeded" {
		t.Fatalf("oversized script: status %d body %v", code, m)
	}
}
