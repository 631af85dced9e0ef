package bitset

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	b := New(9)
	if b.Width() != 9 {
		t.Fatalf("Width = %d, want 9", b.Width())
	}
	if !b.IsZero() {
		t.Fatal("new bitset is not zero")
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d, want 0", b.Count())
	}
	if got := b.String(); got != "000000000" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromString(t *testing.T) {
	b, err := FromString("1011")
	if err != nil {
		t.Fatal(err)
	}
	if b.Width() != 4 {
		t.Fatalf("Width = %d", b.Width())
	}
	want := []bool{true, false, true, true}
	for i, w := range want {
		if b.Test(i+1) != w {
			t.Errorf("Test(%d) = %v, want %v", i+1, b.Test(i+1), w)
		}
	}
	if b.String() != "1011" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("10x1"); err == nil {
		t.Fatal("expected error for invalid character")
	}
}

func TestMustFromStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromString did not panic")
		}
	}()
	MustFromString("2")
}

func TestSetClearTest(t *testing.T) {
	b := New(130) // spans three words
	for _, pos := range []int{1, 64, 65, 128, 129, 130} {
		b.Set(pos)
		if !b.Test(pos) {
			t.Errorf("Test(%d) false after Set", pos)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	b.Clear(64)
	if b.Test(64) {
		t.Error("Test(64) true after Clear")
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(4)
	for _, pos := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", pos)
				}
			}()
			b.Set(pos)
		}()
	}
}

// TestPaperFigure1 pins the path-id algebra on the actual ids of
// Figure 1(c): p1=0001 ... p9=1111.
func TestPaperFigure1(t *testing.T) {
	p1 := MustFromString("0001")
	p2 := MustFromString("0010")
	p3 := MustFromString("0011")
	p5 := MustFromString("1000")
	p8 := MustFromString("1100")
	p9 := MustFromString("1111")

	// p3 = p1 | p2 (C's pid is the or of its children E and F).
	or := p1.Clone()
	or.Or(p2)
	if !or.Equal(p3) {
		t.Fatalf("p1|p2 = %s, want %s", or, p3)
	}

	// Example 2.3: p3 contains p2.
	if !p3.Contains(p2) {
		t.Error("p3 should contain p2")
	}
	if p2.Contains(p3) {
		t.Error("p2 must not contain p3")
	}
	// Containment is strict: p3 does not Contain itself.
	if p3.Contains(p3) {
		t.Error("Contains must be strict")
	}
	if !p3.ContainsOrEqual(p3) {
		t.Error("ContainsOrEqual must be reflexive")
	}
	// p8 (1100) does not contain p3 (0011).
	if p8.Contains(p3) || p8.ContainsOrEqual(p3) {
		t.Error("p8 must not contain p3")
	}
	// Root's pid contains every other pid.
	for _, p := range []*Bitset{p1, p2, p3, p5, p8} {
		if !p9.Contains(p) {
			t.Errorf("p9 should contain %s", p)
		}
	}

	if got := p8.Ones(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("p8.Ones = %v, want [1 2]", got)
	}
	if p5.FirstOne() != 1 {
		t.Fatalf("p5.FirstOne = %d", p5.FirstOne())
	}
	if p2.FirstOne() != 3 {
		t.Fatalf("p2.FirstOne = %d", p2.FirstOne())
	}
}

func TestAndAndNot(t *testing.T) {
	a := MustFromString("1101")
	b := MustFromString("1011")
	and := a.Clone()
	and.And(b)
	if and.String() != "1001" {
		t.Fatalf("And = %s", and)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if diff.String() != "0100" {
		t.Fatalf("AndNot = %s", diff)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(4), New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched widths did not panic")
		}
	}()
	a.Or(b)
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromString("1010")
	c := a.Clone()
	c.Set(2)
	if a.Test(2) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Test(2) || !c.Test(1) {
		t.Fatal("Clone lost bits")
	}
}

func TestEqualDifferentWidth(t *testing.T) {
	if New(4).Equal(New(5)) {
		t.Fatal("bitsets of different widths compare equal")
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		width := 1 + rng.Intn(200)
		b := New(width)
		for pos := 1; pos <= width; pos++ {
			if rng.Intn(2) == 1 {
				b.Set(pos)
			}
		}
		k := b.Key()
		if prev, ok := seen[k]; ok && prev != b.String()+"#"+itoa(width) {
			t.Fatalf("key collision: %q vs %q", prev, b.String())
		}
		seen[k] = b.String() + "#" + itoa(width)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var sb []byte
	for n > 0 {
		sb = append([]byte{byte('0' + n%10)}, sb...)
		n /= 10
	}
	return string(sb)
}

func TestKeyWidthSensitive(t *testing.T) {
	a := New(8) // all zero, width 8
	b := New(16)
	if a.Key() == b.Key() {
		t.Fatal("keys of different-width zero sets collide")
	}
}

func TestSizeBytes(t *testing.T) {
	cases := []struct{ width, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {40, 5}, {87, 11}, {344, 43},
	}
	// The 40/5, 87/11 and 344/43 rows are exactly Table 3 of the paper
	// (distinct paths vs pid size in bytes).
	for _, c := range cases {
		if got := New(c.width).SizeBytes(); got != c.want {
			t.Errorf("SizeBytes(width=%d) = %d, want %d", c.width, got, c.want)
		}
	}
}

func TestOnesLargeWidth(t *testing.T) {
	b := New(300)
	want := []int{1, 63, 64, 65, 127, 128, 129, 200, 300}
	for _, p := range want {
		b.Set(p)
	}
	if got := b.Ones(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Ones = %v, want %v", got, want)
	}
}

func TestFirstOneEmpty(t *testing.T) {
	if New(77).FirstOne() != 0 {
		t.Fatal("FirstOne on empty set should be 0")
	}
}

// randomBitset builds a bitset of the given width from a random source.
func randomBitset(rng *rand.Rand, width int) *Bitset {
	b := New(width)
	for pos := 1; pos <= width; pos++ {
		if rng.Intn(2) == 1 {
			b.Set(pos)
		}
	}
	return b
}

// Property: Or is commutative, associative, idempotent; And distributes
// over Or; containment follows from Or.
func TestQuickAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, w uint8) bool {
		width := int(w%120) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomBitset(rng, width), randomBitset(rng, width), randomBitset(rng, width)

		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false // commutativity
		}

		abc1 := ab.Clone()
		abc1.Or(c)
		bc := b.Clone()
		bc.Or(c)
		abc2 := a.Clone()
		abc2.Or(bc)
		if !abc1.Equal(abc2) {
			return false // associativity
		}

		aa := a.Clone()
		aa.Or(a)
		if !aa.Equal(a) {
			return false // idempotence
		}

		// (a|b) ContainsOrEqual a and b — the labeling invariant: a
		// parent's pid contains each child's pid.
		if !ab.ContainsOrEqual(a) || !ab.ContainsOrEqual(b) {
			return false
		}

		// And-distributivity: a & (b|c) == (a&b) | (a&c)
		left := a.Clone()
		left.And(bc)
		r1 := a.Clone()
		r1.And(b)
		r2 := a.Clone()
		r2.And(c)
		r1.Or(r2)
		return left.Equal(r1)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: String/FromString round-trips.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w%150) + 1
		rng := rand.New(rand.NewSource(seed))
		b := randomBitset(rng, width)
		r, err := FromString(b.String())
		if err != nil {
			return false
		}
		return r.Equal(b) && r.Key() == b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare has the sign of strings.Compare on the String
// forms. The second of each pair is the first with a random-length
// suffix re-drawn, so the first differing bit falls in every word of
// the wider sets; every fourth pair is left equal.
func TestCompareMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, width := range []int{1, 63, 64, 65, 130, 310} {
		for i := 0; i < 300; i++ {
			a := randomBitset(rng, width)
			b := a.Clone()
			if i%4 != 0 {
				for pos := 1 + rng.Intn(width); pos <= width; pos++ {
					if rng.Intn(2) == 1 {
						b.Set(pos)
					} else {
						b.Clear(pos)
					}
				}
			}
			want := strings.Compare(a.String(), b.String())
			if got := Compare(a, b); got != want {
				t.Fatalf("width %d: Compare(%s, %s) = %d, want %d", width, a, b, got, want)
			}
			if got := Compare(b, a); got != -want {
				t.Fatalf("width %d: Compare(%s, %s) = %d, want %d", width, b, a, got, -want)
			}
		}
	}
}

// Property: Ones and Count agree, and Set(pos) for each reported one
// reconstructs the set.
func TestQuickOnesReconstruction(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w%150) + 1
		rng := rand.New(rand.NewSource(seed))
		b := randomBitset(rng, width)
		ones := b.Ones()
		if len(ones) != b.Count() {
			return false
		}
		r := New(width)
		for _, pos := range ones {
			r.Set(pos)
		}
		return r.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: strict containment is a partial order (irreflexive,
// antisymmetric, transitive) on random triples.
func TestQuickContainmentPartialOrder(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w%100) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomBitset(rng, width), randomBitset(rng, width), randomBitset(rng, width)
		if a.Contains(a) {
			return false
		}
		if a.Contains(b) && b.Contains(a) {
			return false
		}
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringAllocatesOnce(t *testing.T) {
	b := MustFromString(strings.Repeat("10", 64))
	allocs := testing.AllocsPerRun(100, func() { _ = b.String() })
	if allocs > 2 {
		t.Fatalf("String allocates %v times per run", allocs)
	}
}

func BenchmarkOr(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBitset(rng, 344) // XMark-sized pid
	y := randomBitset(rng, 344)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkContainsOrEqual(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBitset(rng, 344)
	y := x.Clone()
	y.And(randomBitset(rng, 344))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.ContainsOrEqual(y) {
			b.Fatal("containment lost")
		}
	}
}

// benchArena builds a word arena of n rows at the given stride, with
// row 0 set to all-ones so containment sweeps cannot short-circuit on
// the first candidate.
func benchArena(rng *rand.Rand, n, stride int) ([]uint64, []int32) {
	arena := make([]uint64, n*stride)
	for i := range arena {
		arena[i] = rng.Uint64()
	}
	for i := 0; i < stride; i++ {
		arena[i] = ^uint64(0)
	}
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return arena, idxs
}

// BenchmarkContainsWords is the ns/op face of perfgate's flagship pin
// (inline noescape bce<=0 in perf-manifest.txt): the word loop the
// whole containment family inlines.
func BenchmarkContainsWords(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const stride = 6 // XMark-sized pid: 344 bits
	arena, _ := benchArena(rng, 64, stride)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ContainsWords(arena, 0, (i%63+1)*stride, stride) {
			b.Fatal("all-ones row lost containment")
		}
	}
}

// BenchmarkContainsAnyWords drives the ancestor-side pruning sweep the
// join kernel spends its time in; its bce<=5 manifest ceiling counts
// ContainsWords' prologue checks attributed to the in-loop call site.
func BenchmarkContainsAnyWords(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const stride = 6
	arena, idxs := benchArena(rng, 64, stride)
	// Drop the all-ones row from the candidates: the sweep then scans
	// every candidate before failing, the worst case.
	miss := idxs[1:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ContainsAnyWords(arena, 0, stride, idxs) {
			b.Fatal("all-ones candidate not found")
		}
		if ContainsAnyWords(arena, stride, stride, miss) && i < 0 {
			b.Fatal("unreachable: keeps the miss sweep live")
		}
	}
}
