package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathest/internal/guard"
)

// postBatch posts one /estimate/batch request and decodes the reply.
func postBatch(t *testing.T, url, summary string, queries []string) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"summary": summary, "queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	return do(t, http.MethodPost, url+"/estimate/batch", bytes.NewReader(body))
}

// batchResults extracts the positional result slots.
func batchResults(t *testing.T, m map[string]any) []map[string]any {
	t.Helper()
	raw, ok := m["results"].([]any)
	if !ok {
		t.Fatalf("batch response missing results: %v", m)
	}
	out := make([]map[string]any, len(raw))
	for i, r := range raw {
		out[i] = r.(map[string]any)
	}
	return out
}

func uploadTestSummary(t *testing.T, s *Server, name string) {
	t.Helper()
	code, _ := do(t, http.MethodPut, "http://"+s.Addr()+"/summaries/"+name, bytes.NewReader(summaryBytes(t)))
	if code != http.StatusOK {
		t.Fatalf("upload: status %d", code)
	}
}

// TestEstimateBatch pins the endpoint's contract: positional results,
// duplicate queries answered identically, per-query error isolation,
// and agreement with the sequential /estimate endpoint.
func TestEstimateBatch(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	uploadTestSummary(t, s, "d")

	queries := []string{
		"//people/person",
		"//person/name",
		"//people/person", // duplicate of slot 0
		"//items/item",
		"][not-a-query",   // malformed: isolated per-slot error
		"//site[/people]", // branch predicate
	}
	code, m := postBatch(t, base, "d", queries)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %v", code, m)
	}
	results := batchResults(t, m)
	if len(results) != len(queries) {
		t.Fatalf("batch: %d results for %d queries", len(results), len(queries))
	}

	for i, q := range queries {
		r := results[i]
		if i == 4 {
			if r["kind"] != "malformed_query" {
				t.Errorf("slot %d (%s): kind = %v, want malformed_query", i, q, r["kind"])
			}
			continue
		}
		if r["error"] != nil {
			t.Errorf("slot %d (%s): unexpected error %v", i, q, r["error"])
			continue
		}
		// Must agree with the sequential endpoint.
		sc, sm := get(t, fmt.Sprintf("%s/estimate?summary=d&q=%s", base, strings.ReplaceAll(q, "[", "%5B")))
		if sc != http.StatusOK {
			t.Fatalf("sequential estimate %s: status %d: %v", q, sc, sm)
		}
		if r["estimate"] != sm["estimate"] {
			t.Errorf("slot %d (%s): batch %v != sequential %v", i, q, r["estimate"], sm["estimate"])
		}
	}
	if results[0]["estimate"] != results[2]["estimate"] {
		t.Errorf("duplicate slots disagree: %v vs %v", results[0]["estimate"], results[2]["estimate"])
	}
}

// TestEstimateBatchFallback: a missing summary degrades every valid
// slot to the marked fallback estimate, while malformed queries are
// still reported as the client's fault (degradation never masks bad
// queries — same contract as /estimate).
func TestEstimateBatchFallback(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	code, m := postBatch(t, base, "nope", []string{"//a/b", "][broken", "//item//name/folls::x"})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %v", code, m)
	}
	results := batchResults(t, m)
	if results[0]["fallback"] != true || results[0]["confidence"] != "low" {
		t.Errorf("slot 0: want marked fallback, got %v", results[0])
	}
	if results[0]["estimate"].(float64) != 1.0 {
		t.Errorf("slot 0: fallback estimate = %v, want 1", results[0]["estimate"])
	}
	for _, i := range []int{1, 2} {
		if results[i]["kind"] != "malformed_query" {
			t.Errorf("slot %d: kind = %v, want malformed_query", i, results[i]["kind"])
		}
	}
}

// TestEstimateBatchGuards pins the request-level failure modes: batch
// size over the limit is rejected whole with 413, bad JSON and missing
// fields with 400.
func TestEstimateBatchGuards(t *testing.T) {
	lim := guard.DefaultLimits()
	lim.MaxBatchQueries = 4
	s := startServer(t, Config{Limits: lim})
	base := "http://" + s.Addr()
	uploadTestSummary(t, s, "d")

	code, m := postBatch(t, base, "d", []string{"//a", "//b", "//c", "//d", "//e"})
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d (%v), want 413", code, m)
	}

	code, _ = do(t, http.MethodPost, base+"/estimate/batch", strings.NewReader("{not json"))
	if code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", code)
	}

	code, _ = postBatch(t, base, "", nil)
	if code != http.StatusBadRequest {
		t.Errorf("missing fields: status %d, want 400", code)
	}

	// Per-query length limit is isolated to the slot, not the batch.
	code, m = postBatch(t, base, "d", []string{"//people/person", "//" + strings.Repeat("x", 5000)})
	if code != http.StatusOK {
		t.Fatalf("mixed batch: status %d", code)
	}
	results := batchResults(t, m)
	if results[0]["error"] != nil {
		t.Errorf("slot 0 should succeed: %v", results[0])
	}
	if results[1]["kind"] != "limit_exceeded" {
		t.Errorf("slot 1: kind = %v, want limit_exceeded", results[1]["kind"])
	}
}

// TestBatchFasterThanSequential is the acceptance benchmark for the
// batch path: N queries (few distinct — the serving hot case) through
// one /estimate/batch call must beat the same N queries as sequential
// /estimate round trips. The win comes from one round trip, the plan
// cache, and intra-batch dedup, so it holds even on one CPU.
func TestBatchFasterThanSequential(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	uploadTestSummary(t, s, "d")

	distinct := []string{
		"//people/person",
		"//person/name",
		"//items/item",
		"//site[/people]",
		"//site//name",
		"//people/person[/name]",
		"//site/items",
		"//person//name",
	}
	const n = 200
	queries := make([]string, n)
	for i := range queries {
		queries[i] = distinct[i%len(distinct)]
	}

	// Warm both paths once so neither pays one-time costs in the
	// measured run.
	if code, _ := postBatch(t, base, "d", distinct); code != http.StatusOK {
		t.Fatal("warmup batch failed")
	}

	seqStart := time.Now()
	for _, q := range queries {
		code, _ := get(t, base+"/estimate?summary=d&q="+strings.ReplaceAll(q, "[", "%5B"))
		if code != http.StatusOK {
			t.Fatalf("sequential estimate %s: status %d", q, code)
		}
	}
	seq := time.Since(seqStart)

	batchStart := time.Now()
	code, m := postBatch(t, base, "d", queries)
	batch := time.Since(batchStart)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if got := len(batchResults(t, m)); got != n {
		t.Fatalf("batch: %d results, want %d", got, n)
	}

	t.Logf("sequential %d calls: %v; one batch: %v (%.1fx)", n, seq, batch, float64(seq)/float64(batch))
	if batch >= seq {
		t.Errorf("batch (%v) not faster than %d sequential calls (%v)", batch, n, seq)
	}
}

// TestEstimateBatchConcurrent hammers the endpoint from many client
// goroutines sharing one summary — the -race guard over the plan
// cache, the result cache, and the estimator's memo kernel.
func TestEstimateBatchConcurrent(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	uploadTestSummary(t, s, "d")

	queries := []string{"//people/person", "//person/name", "//items/item", "//site[/people]"}
	var want []float64
	{
		code, m := postBatch(t, base, "d", queries)
		if code != http.StatusOK {
			t.Fatalf("seed batch: status %d", code)
		}
		for _, r := range batchResults(t, m) {
			want = append(want, r["estimate"].(float64))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body, _ := json.Marshal(map[string]any{"summary": "d", "queries": queries})
				resp, err := http.Post(base+"/estimate/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				var m map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
					resp.Body.Close()
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				raw := m["results"].([]any)
				for j, r := range raw {
					got := r.(map[string]any)["estimate"].(float64)
					if got != want[j] {
						errs <- fmt.Sprintf("slot %d: %v != %v", j, got, want[j])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
