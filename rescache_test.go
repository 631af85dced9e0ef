package xpathest

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func cacheFixture(t testing.TB) (*Summary, *Query) {
	t.Helper()
	d, err := ParseDocumentString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileQuery("//book/chapter")
	if err != nil {
		t.Fatal(err)
	}
	return d.BuildSummary(SummaryOptions{}), q
}

// TestEstimateCacheHitMissEpoch pins the cache key: an entry serves
// only the summary that computed it. Two builds of one document, and
// an Apply successor, are distinct summaries with distinct IDs, so
// none of them reads another's entries.
func TestEstimateCacheHitMissEpoch(t *testing.T) {
	d, err := ParseDocumentString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileQuery("//book/chapter")
	if err != nil {
		t.Fatal(err)
	}
	sum := d.BuildSummary(SummaryOptions{})
	twin := d.BuildSummary(SummaryOptions{})
	c := NewEstimateCache(1 << 20)

	if _, ok := c.Get(sum.ID(), "", q); ok {
		t.Fatal("empty cache returned a hit")
	}
	want, err := sum.EstimateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.EstimateQuery(sum, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("first EstimateQuery = %v, want %v", v, want)
	}
	v2, ok := c.Get(sum.ID(), "", q)
	if !ok || math.Float64bits(v2) != math.Float64bits(want) {
		t.Fatalf("hit = (%v, %v), want (%v, true)", v2, ok, want)
	}

	// A second build of the same document does not share the entry,
	// and neither does another scope under the same ID.
	if _, ok := c.Get(twin.ID(), "", q); ok {
		t.Fatal("a second BuildSummary of one document shared an entry")
	}
	if _, ok := c.Get(sum.ID(), "other", q); ok {
		t.Fatal("different scope shared an entry")
	}

	// An Apply successor misses and is computed on the edited document:
	// deleting the second book leaves two chapters.
	res, err := sum.Apply(EditScript{Ops: []EditOp{{Loc: []int{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(res.Summary.ID(), "", q); ok {
		t.Fatal("Apply successor hit its predecessor's entry")
	}
	if v, err := c.EstimateQuery(res.Summary, q); err != nil || v != 2 {
		t.Fatalf("successor EstimateQuery = (%v, %v), want (2, nil)", v, err)
	}

	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 6 {
		t.Fatalf("stats = %d hits / %d misses, want 1/6", hits, misses)
	}

	// Every route that yields a summary assigns a fresh, nonzero ID.
	streamed, err := SummarizeStream(strings.NewReader(bookXML), SummaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sum.Save(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for route, s := range map[string]*Summary{
		"BuildSummary": sum, "second BuildSummary": twin, "Apply": res.Summary,
		"SummarizeStream": streamed, "ReadSummary": read,
	} {
		if s.ID() == 0 {
			t.Errorf("%s: ID() = 0", route)
		}
		if other, dup := seen[s.ID()]; dup {
			t.Errorf("%s and %s share ID %d", route, other, s.ID())
		}
		seen[s.ID()] = route
	}
}

func TestEstimateCacheEviction(t *testing.T) {
	_, q := cacheFixture(t)
	// Budget for roughly three entries; inserting many must evict from
	// the LRU tail and keep the byte accounting consistent.
	c := NewEstimateCache(3 * (resEntryOverhead + 40))
	for i := 0; i < 32; i++ {
		c.Put(1, fmt.Sprintf("scope-%02d", i), q, float64(i))
	}
	if _, _, ev := c.Stats(); ev == 0 {
		t.Fatal("no evictions under a 3-entry budget")
	}
	if c.used > c.budget {
		t.Fatalf("used %d bytes over budget %d after eviction", c.used, c.budget)
	}
	// The most recent insert must have survived.
	if _, ok := c.Get(1, "scope-31", q); !ok {
		t.Fatal("most recent entry was evicted")
	}

	// A budget below one entry still admits exactly the latest entry.
	tiny := NewEstimateCache(1)
	tiny.Put(1, "a", q, 1)
	tiny.Put(1, "b", q, 2)
	if tiny.ll.Len() != 1 {
		t.Fatalf("tiny cache holds %d entries, want 1", tiny.ll.Len())
	}
}

func TestEstimateCacheNilSafe(t *testing.T) {
	sum, q := cacheFixture(t)
	var c *EstimateCache
	if _, ok := c.Get(1, "s", q); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, "s", q, 1)
	want, err := sum.EstimateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.EstimateQuery(sum, q)
	if err != nil || math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("nil EstimateQuery = (%v, %v), want (%v, nil)", v, err, want)
	}
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache reported nonzero stats")
	}
}

// TestEstimateCacheHammer drives concurrent mixed Get/Put/EstimateQuery
// traffic across summaries and scopes under a small budget, so the
// race detector sees the LRU mutation paths and every hit is checked
// for bit-equality against direct estimation.
func TestEstimateCacheHammer(t *testing.T) {
	d, err := ParseDocumentString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	sums := []*Summary{
		d.BuildSummary(SummaryOptions{}),
		d.BuildSummary(SummaryOptions{}),
		d.BuildSummary(SummaryOptions{}),
	}
	queries := []string{"//book/chapter", "//book", "//library//title", "//book[/chapter]/appendix"}
	qs := make([]*Query, len(queries))
	want := make([]float64, len(queries))
	for i, raw := range queries {
		q, err := CompileQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		v, err := sums[0].EstimateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		qs[i], want[i] = q, v
	}

	c := NewEstimateCache(2 * (resEntryOverhead + 64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				qi := (g + i) % len(qs)
				sum := sums[i%len(sums)]
				var v float64
				var err error
				if g%2 == 0 {
					v, err = c.EstimateQuery(sum, qs[qi])
				} else {
					// A scoped namespace under the same IDs, through
					// Get and Put.
					hv, ok := c.Get(sum.ID(), "t", qs[qi])
					if !ok {
						hv, err = sum.EstimateQuery(qs[qi])
						c.Put(sum.ID(), "t", qs[qi], hv)
					}
					v = hv
				}
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(v) != math.Float64bits(want[qi]) {
					t.Errorf("q%d summary %d: got %v, want %v", qi, sum.ID(), v, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkEstimateCached measures the result-cache hit path: the cost
// of serving an already-computed estimate.
func BenchmarkEstimateCached(b *testing.B) {
	sum, q := cacheFixture(b)
	c := NewEstimateCache(1 << 20)
	if _, err := c.EstimateQuery(sum, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(sum.ID(), "", q); !ok {
			b.Fatal("cache miss on hit path")
		}
	}
}
