package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xpathest/internal/datagen"
	"xpathest/internal/eval"
	"xpathest/internal/paperfig"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// build returns an executor over doc and the plain evaluator it
// filters.
func build(doc *xmltree.Document) (*Executor, *eval.Evaluator) {
	lab := pathenc.MustBuild(doc)
	ev := eval.New(doc)
	return New(ev, lab, stats.Collect(doc, lab)), ev
}

func TestPaperDocEquivalence(t *testing.T) {
	doc := paperfig.Doc()
	x, plain := build(doc)
	for _, q := range []string{
		"//A//C", "//A[/C/F]/B/D", "//C[/E!]/F", "/Root/A/B/D",
		"A[/C[/F]/folls::B!/D]", "A![/C[/F]/folls::B/D]",
		"//A[/C/foll::D!]", "//A[/B!/pre::E]", "//A/B[1]",
		"//A/F", "//Z", "//*",
	} {
		p := xpath.MustParse(q)
		want, err := plain.Selectivity(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := x.Count(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got != want {
			t.Errorf("%s: accelerated %d, plain %d", q, got, want)
		}
	}
}

func TestMatchesIdentical(t *testing.T) {
	doc := paperfig.Doc()
	x, plain := build(doc)
	p := xpath.MustParse("//B/D")
	a, err := x.Matches(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Matches(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d differs", i)
		}
	}
}

func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	b := xmltree.NewBuilder()
	n := 1
	b.Open("r")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(4)
		for i := 0; i < kids && n < maxNodes; i++ {
			n++
			b.Open(tags[rng.Intn(len(tags))])
			if depth < 5 {
				grow(depth + 1)
			}
			b.Close()
		}
	}
	grow(0)
	b.Close()
	return b.Document()
}

func randomQuery(rng *rand.Rand) *xpath.Path {
	tags := []string{"a", "b", "c", "r"}
	pick := func() string { return tags[rng.Intn(len(tags))] }
	var build func(depth, steps int, allowOrder bool) *xpath.Path
	build = func(depth, steps int, allowOrder bool) *xpath.Path {
		p := &xpath.Path{}
		n := 1 + rng.Intn(steps)
		for i := 0; i < n; i++ {
			axis := xpath.Child
			if rng.Intn(3) == 0 {
				axis = xpath.Descendant
			}
			if allowOrder && i > 0 && p.Steps[i-1].Axis == xpath.Child && rng.Intn(4) == 0 {
				axis = []xpath.Axis{xpath.FollowingSibling, xpath.PrecedingSibling,
					xpath.Following, xpath.Preceding}[rng.Intn(4)]
			}
			s := &xpath.Step{Axis: axis, Tag: pick()}
			if axis == xpath.Child && rng.Intn(8) == 0 {
				s.Pos = []xpath.PosFilter{xpath.PosFirst, xpath.PosLast}[rng.Intn(2)]
			}
			if depth < 1 && rng.Intn(3) == 0 {
				s.Preds = append(s.Preds, build(depth+1, 2, true))
			}
			p.Steps = append(p.Steps, s)
		}
		return p
	}
	return build(0, 3, false)
}

// Property: the pid pre-filter never changes results — the soundness
// claim of Section 2 put to work.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(120))
		x, plain := build(doc)
		for k := 0; k < 5; k++ {
			q := randomQuery(rng)
			want, errA := plain.Selectivity(q)
			got, errB := x.Count(q)
			if (errA == nil) != (errB == nil) {
				t.Logf("seed %d %s: err mismatch %v vs %v", seed, q, errA, errB)
				return false
			}
			if errA == nil && got != want {
				t.Logf("seed %d %s: accelerated %d, plain %d", seed, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAcceleratedVsPlain measures the pruning benefit on a
// selective branch query over a wide dataset: the join throws away the
// path ids of fields that never co-occur with the predicate, so the
// evaluator skips most of the candidate lists.
func BenchmarkAcceleratedVsPlain(b *testing.B) {
	doc := datagen.DBLP(datagen.Config{Seed: 2, Scale: 0.05})
	q := xpath.MustParse("//phdthesis[/month]/author")

	b.Run("plain", func(b *testing.B) {
		ev := eval.New(doc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Selectivity(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("accelerated", func(b *testing.B) {
		x, _ := build(doc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := x.Count(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
