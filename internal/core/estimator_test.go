package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xpathest/internal/eval"
	"xpathest/internal/histogram"
	"xpathest/internal/paperfig"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// fixture bundles the Figure 1 document with an exact-table estimator.
type fixture struct {
	doc *xmltree.Document
	tbs *stats.Tables
	est *Estimator
	ev  *eval.Evaluator
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	doc := paperfig.Doc()
	tbs := stats.Collect(doc, nil)
	return &fixture{
		doc: doc,
		tbs: tbs,
		est: New(tbs.Labeling, TableSource{Tables: tbs}),
		ev:  eval.New(doc),
	}
}

func (f *fixture) estimate(t testing.TB, q string) float64 {
	t.Helper()
	got, err := f.est.EstimateString(q)
	if err != nil {
		t.Fatalf("Estimate(%s): %v", q, err)
	}
	return got
}

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestExample41PathJoin pins the path join of Example 4.1 / Figure 3:
// Q1 = //A[/C/F]/B/D.
func TestExample41PathJoin(t *testing.T) {
	f := newFixture(t)
	tree, err := xpath.BuildTree(xpath.MustParse("//A[/C/F]/B/D"))
	if err != nil {
		t.Fatal(err)
	}
	joined, err := pathJoin(newKernel(f.tbs.Labeling, TableSource{Tables: f.tbs}), tree, fullInclude(tree))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"A": {"1011": 1}, // p7
		"C": {"0011": 1}, // p3
		"F": {"0001": 1}, // p1
		"B": {"1000": 3}, // p5 (p8 pruned through A)
		"D": {"1000": 4}, // p5
	}
	for _, n := range tree.Nodes {
		got := map[string]float64{}
		for _, pf := range joined.pf(n) {
			got[pf.Pid.String()] = pf.Freq
		}
		w := want[n.Tag]
		if len(got) != len(w) {
			t.Errorf("%s: joined = %v, want %v", n.Tag, got, w)
			continue
		}
		for pid, freq := range w {
			if got[pid] != freq {
				t.Errorf("%s[%s] = %v, want %v", n.Tag, pid, got[pid], freq)
			}
		}
	}
}

// TestTheorem41 pins Example 4.2: simple queries estimate exactly.
func TestTheorem41(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		q    string
		want float64
	}{
		{"//A//C", 2},
		{"//A!//C", 2},
		{"/Root/A/B/D", 4},
		{"//B/D", 4},
		{"//C/E", 2},
		{"//C!/E", 2},
		{"//B/E", 1},
		{"//A/F", 0}, // negative
	}
	for _, c := range cases {
		if got := f.estimate(t, c.q); !approx(got, c.want) {
			t.Errorf("Estimate(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestExample45BranchQuery pins Example 4.3/4.5: Q2 = //C[/E]/F with
// target E estimates 1 via Equation (2) (the raw join would say 2).
func TestExample45BranchQuery(t *testing.T) {
	f := newFixture(t)
	if got := f.estimate(t, "//C[/E!]/F"); !approx(got, 1) {
		t.Fatalf("S_Q2(E) = %v, want 1", got)
	}
	// The trunk node C keeps its exact join value.
	if got := f.estimate(t, "//C![/E]/F"); !approx(got, 1) {
		t.Fatalf("S_Q2(C) = %v, want 1", got)
	}
}

// TestExample51OrderSibling pins Example 5.1 end to end, including the
// intermediate no-order estimates 1.3... and 2.6...:
//
//	S_Q1(B) = 4·1/3, S_Q′1(B) = 4·2/3, S_Q⃗′1(B) = 2 (order table)
//	S_Q⃗1(B) = 2 · (4/3) / (8/3) = 1
func TestExample51OrderSibling(t *testing.T) {
	f := newFixture(t)

	// Counterpart Q1 without order: target B in the branch part.
	if got := f.estimate(t, "//A[/C[/F]]/B!/D"); !approx(got, 4.0/3) {
		t.Fatalf("S_Q1(B) = %v, want 4/3 (the paper's 1.3)", got)
	}
	// Simplified counterpart Q′1 = A[/C]/B/D.
	if got := f.estimate(t, "//A[/C]/B!/D"); !approx(got, 8.0/3) {
		t.Fatalf("S_Q'1(B) = %v, want 8/3 (the paper's 2.6)", got)
	}
	// The order query.
	if got := f.estimate(t, "A[/C[/F]/folls::B!/D]"); !approx(got, 1) {
		t.Fatalf("S_Q⃗1(B) = %v, want 1", got)
	}
}

// TestExample52OrderDeepBranch pins Example 5.2: target D below the
// sibling node estimates 1.3·2/2.6 = 1 via Equation (4).
func TestExample52OrderDeepBranch(t *testing.T) {
	f := newFixture(t)
	if got := f.estimate(t, "A[/C[/F]/folls::B/D!]"); !approx(got, 1) {
		t.Fatalf("S_Q⃗1(D) = %v, want 1", got)
	}
}

// TestEquation5Trunk pins the trunk-target case: S_Q⃗1(A) =
// min(S_Q1(A), S_Q⃗1(C), S_Q⃗1(B)) = 1.
func TestEquation5Trunk(t *testing.T) {
	f := newFixture(t)
	if got := f.estimate(t, "A![/C[/F]/folls::B/D]"); !approx(got, 1) {
		t.Fatalf("S_Q⃗1(A) = %v, want 1", got)
	}
}

// TestExample53Conversion pins the preceding/following rewriting:
// //A[/C/foll::D] converts to //A[/C/folls::B/D] through path B/D of
// p5 and estimates 2 (the exact answer).
func TestExample53Conversion(t *testing.T) {
	f := newFixture(t)
	if got := f.estimate(t, "//A[/C/foll::D!]"); !approx(got, 2) {
		t.Fatalf("S(D) = %v, want 2", got)
	}
	exact, err := f.ev.Selectivity(xpath.MustParse("//A[/C/foll::D!]"))
	if err != nil {
		t.Fatal(err)
	}
	if exact != 2 {
		t.Fatalf("ground truth = %d, want 2", exact)
	}
	// The rewritten sibling query estimates the same.
	if got := f.estimate(t, "//A[/C/folls::B/D!]"); !approx(got, 2) {
		t.Fatalf("rewritten = %v, want 2", got)
	}
}

func TestPrecedingConversion(t *testing.T) {
	f := newFixture(t)
	// //A[/B/pre::E]: E before a B under the same A... E occurs under
	// C; in A2 order (B,C,B) the C precedes the second B; in A3 (C,B)
	// it precedes B. Exact: B_c and B_d have a preceding E (via C).
	got := f.estimate(t, "//A[/B!/pre::E]")
	exact, err := f.ev.Selectivity(xpath.MustParse("//A[/B!/pre::E]"))
	if err != nil {
		t.Fatal(err)
	}
	if exact != 2 {
		t.Fatalf("ground truth = %d, want 2", exact)
	}
	if got <= 0 {
		t.Fatalf("estimate = %v, want positive", got)
	}
}

func TestUnsupportedQueries(t *testing.T) {
	f := newFixture(t)
	for _, q := range []string{
		"//A[/B/folls::C/folls::D]", // two order edges
		"//*/B",                     // wildcard
	} {
		if _, err := f.est.EstimateString(q); err == nil {
			t.Errorf("Estimate(%s) succeeded, want error", q)
		}
	}
	if _, err := f.est.EstimateString("///"); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestHistogramSourceVarianceZeroMatchesTables(t *testing.T) {
	f := newFixture(t)
	n := f.tbs.Labeling.NumDistinct()
	ps := histogram.BuildPSet(f.tbs.Freq, n, 0)
	os := histogram.BuildOSet(f.tbs.Order, ps, n, 0)
	hist := New(f.tbs.Labeling, HistogramSource{P: ps, O: os})

	queries := []string{
		"//A//C", "//C[/E!]/F", "//A[/C/F]/B/D",
		"A[/C[/F]/folls::B!/D]", "A[/C[/F]/folls::B/D!]",
		"A![/C[/F]/folls::B/D]", "//A[/C/foll::D!]",
	}
	for _, q := range queries {
		want, err := f.est.EstimateString(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hist.EstimateString(q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, want) {
			t.Errorf("histogram(v=0) Estimate(%s) = %v, table = %v", q, got, want)
		}
	}
}

func TestHistogramSourceCoarseStillEstimates(t *testing.T) {
	f := newFixture(t)
	n := f.tbs.Labeling.NumDistinct()
	ps := histogram.BuildPSet(f.tbs.Freq, n, 10)
	os := histogram.BuildOSet(f.tbs.Order, ps, n, 10)
	hist := New(f.tbs.Labeling, HistogramSource{P: ps, O: os})
	got, err := hist.EstimateString("A[/C[/F]/folls::B!/D]")
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("coarse estimate = %v", got)
	}
}

// randomChainDoc builds a random document with recursive tag nesting
// (the same tag may appear at several depths). Theorem 4.1's exactness
// does not hold on such schemas; use it only for well-formedness
// properties.
func randomChainDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
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

// randomStratifiedDoc builds a random document whose tags are unique
// per depth (a non-recursive schema, like the paper's datasets modulo
// XMark's parlist). On such schemas the path join is exact for simple
// queries — the regime of Theorem 4.1.
func randomStratifiedDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	tagAt := func(depth, k int) string {
		return string(rune('a'+k)) + string(rune('0'+depth))
	}
	b := xmltree.NewBuilder()
	n := 1
	b.Open("r")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(4)
		for i := 0; i < kids && n < maxNodes; i++ {
			n++
			b.Open(tagAt(depth, rng.Intn(3)))
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

// randomSimpleQuery builds a random simple path (no branches, no
// order axes) whose tags are drawn from actual document paths so that
// positive queries are common.
func randomSimpleQuery(rng *rand.Rand, doc *xmltree.Document) *xpath.Path {
	var leaves []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
		return true
	})
	leaf := leaves[rng.Intn(len(leaves))]
	tags := leaf.PathTags()
	// Random subsequence preserving order, keeping at least one tag.
	var pick []string
	for _, tag := range tags {
		if rng.Intn(2) == 0 {
			pick = append(pick, tag)
		}
	}
	if len(pick) == 0 {
		pick = []string{tags[len(tags)-1]}
	}
	p := &xpath.Path{}
	for i, tag := range pick {
		axis := xpath.Descendant
		if i > 0 && rng.Intn(2) == 0 {
			axis = xpath.Child
		}
		s := &xpath.Step{Axis: axis, Tag: tag}
		// Occasionally add a positional filter to the LAST step (the
		// extension): the filtered node's own count is exactly
		// derivable from the order statistics, so Theorem 4.1
		// exactness extends to it. Filters on intermediate steps are
		// uniformity-scaled and only approximate.
		if axis == xpath.Child && i == len(pick)-1 && rng.Intn(4) == 0 {
			s.Pos = []xpath.PosFilter{xpath.PosFirst, xpath.PosLast}[rng.Intn(2)]
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// Property (Theorem 4.1): on simple queries with exact tables the
// estimate equals the exact selectivity.
func TestQuickTheorem41(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomStratifiedDoc(rng, 2+rng.Intn(120))
		tbs := stats.Collect(doc, nil)
		est := New(tbs.Labeling, TableSource{Tables: tbs})
		ev := eval.New(doc)
		for k := 0; k < 5; k++ {
			q := randomSimpleQuery(rng, doc)
			got, err := est.Estimate(q)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, q, err)
				return false
			}
			want, err := ev.Selectivity(q)
			if err != nil {
				return false
			}
			if !approx(got, float64(want)) {
				t.Logf("seed %d %s: est %v, exact %d", seed, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: estimates are always finite and non-negative, for branch
// and order queries alike, over exact tables and coarse histograms.
func TestQuickEstimatesWellFormed(t *testing.T) {
	queryPool := []string{
		"//a[/b]/c", "//a[/b/c]/d", "//a[/b!/c]/d", "//a[/b]/c!",
		"//a[/b/folls::c!]", "//a[/b/folls::c]/d", "//a![/b/folls::c/d]",
		"//a[/b/pres::c!]", "//a[/b/foll::c!]", "//a[/b/pre::c!]",
		"//a[/b/folls::c/d!]", "//r//a[/b]/c",
	}
	f := func(seed int64, coarse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomChainDoc(rng, 2+rng.Intn(150))
		tbs := stats.Collect(doc, nil)
		var src Source = TableSource{Tables: tbs}
		if coarse {
			n := tbs.Labeling.NumDistinct()
			ps := histogram.BuildPSet(tbs.Freq, n, float64(rng.Intn(10)))
			os := histogram.BuildOSet(tbs.Order, ps, n, float64(rng.Intn(10)))
			src = HistogramSource{P: ps, O: os}
		}
		est := New(tbs.Labeling, src)
		for _, q := range queryPool {
			got, err := est.EstimateString(q)
			if err != nil {
				return false
			}
			if got < -eps || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Logf("seed %d %s: %v", seed, q, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on exact tables, zero exact selectivity implies zero (or
// near-zero) estimate for no-order queries — the path join prunes
// every impossible pid... this holds for simple queries; for branch
// queries the join may keep sibling-compatible pids, so we assert it
// only for simple ones.
func TestQuickNegativeSimpleQueriesEstimateZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomStratifiedDoc(rng, 2+rng.Intn(100))
		tbs := stats.Collect(doc, nil)
		est := New(tbs.Labeling, TableSource{Tables: tbs})
		ev := eval.New(doc)
		for k := 0; k < 4; k++ {
			q := randomSimpleQuery(rng, doc)
			want, err := ev.Selectivity(q)
			if err != nil || want != 0 {
				continue
			}
			got, err := est.Estimate(q)
			if err != nil {
				return false
			}
			if got > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEstimateOrderQuery(b *testing.B) {
	doc := paperfig.Doc()
	tbs := stats.Collect(doc, nil)
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	q, err := xpath.BuildTree(xpath.MustParse("A[/C[/F]/folls::B!/D]"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateTree(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPositionalFilters pins the [1]/[last()] extension on the
// Figure 1 document: the corrections come straight from the
// path-order table, so exact statistics give exact counts.
func TestPositionalFilters(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		q    string
		want float64
	}{
		{"//A/B[1]", 3},       // first B child of each A
		{"//A/B[last()]", 3},  // last B child of each A
		{"//A/C[1]", 2},       // every A has at most one C
		{"/Root/A/B[1]/D", 3}, // D under first-of-tag B's
		{"//A/E[1]", 0},       // E is never a child of A
		{"/Root/A[1]", 1},     // first A under the root
		{"/Root/A[last()]", 1},
	}
	for _, c := range cases {
		got := f.estimate(t, c.q)
		if !approx(got, c.want) {
			t.Errorf("Estimate(%s) = %v, want %v", c.q, got, c.want)
		}
		exact, err := f.ev.Selectivity(xpath.MustParse(c.q))
		if err != nil {
			t.Fatal(err)
		}
		if !approx(float64(exact), c.want) {
			t.Errorf("exact(%s) = %d, want %v", c.q, exact, c.want)
		}
	}
}

func TestExplain(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		q       string
		needles []string
	}{
		{"//A//C", []string{"Theorem 4.1"}},
		{"//C[/E!]/F", []string{"Eq 2"}},
		{"A[/C[/F]/folls::B!/D]", []string{"Equation (3)", "path-order table"}},
		{"A[/C[/F]/folls::B/D!]", []string{"Equation (4)"}},
		{"A![/C[/F]/folls::B/D]", []string{"Equation (5)", "min("}},
		{"//A[/C/foll::D!]", []string{"Example 5.3 rewrite"}},
	}
	for _, c := range cases {
		x, err := f.est.ExplainString(c.q)
		if err != nil {
			t.Fatalf("Explain(%s): %v", c.q, err)
		}
		// The explanation value must equal the plain estimate.
		want := f.estimate(t, c.q)
		if !approx(x.Value, want) {
			t.Errorf("Explain(%s).Value = %v, Estimate = %v", c.q, x.Value, want)
		}
		text := x.String()
		for _, n := range c.needles {
			if !strings.Contains(text, n) {
				t.Errorf("Explain(%s) missing %q:\n%s", c.q, n, text)
			}
		}
	}
	// The shared estimator must stay trace-free (concurrency safety).
	if f.est.trace != nil {
		t.Fatal("Explain leaked a trace onto the shared estimator")
	}
	if _, err := f.est.ExplainString("((("); err == nil {
		t.Fatal("bad query accepted")
	}
}
