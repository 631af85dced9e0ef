package pidtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xpathest/internal/bitset"
	"xpathest/internal/paperfig"
	"xpathest/internal/pathenc"
)

// figure1Tree builds the tree of Figure 6 from the nine path ids of
// Figure 1(c).
func figure1Tree(t testing.TB) *Tree {
	t.Helper()
	l := pathenc.MustBuild(paperfig.Doc())
	return MustBuild(l.Distinct())
}

func TestFigure6IDAssignment(t *testing.T) {
	tr := figure1Tree(t)
	if tr.NumIDs() != 9 {
		t.Fatalf("NumIDs = %d, want 9", tr.NumIDs())
	}
	if tr.Width() != 4 {
		t.Fatalf("Width = %d, want 4", tr.Width())
	}
	// Ascending bit-sequence order reproduces the p1..p9 numbering of
	// Figure 1(c).
	want := []string{"0001", "0010", "0011", "0100", "1000", "1010", "1011", "1100", "1111"}
	for i, bits := range want {
		got, ok := tr.Bits(i + 1)
		if !ok {
			t.Fatalf("Bits(%d) not found", i+1)
		}
		if got.String() != bits {
			t.Errorf("Bits(%d) = %s, want %s (p%d)", i+1, got, bits, i+1)
		}
	}
}

// TestFigure6Example61 pins Example 6.1: the leaf with id 2 denotes
// 0010, reached by concatenating the edge bits.
func TestFigure6Example61(t *testing.T) {
	tr := figure1Tree(t)
	b, ok := tr.Bits(2)
	if !ok || b.String() != "0010" {
		t.Fatalf("Bits(2) = %v/%v, want 0010", b, ok)
	}
	id, ok := tr.ID(bitset.MustFromString("0010"))
	if !ok || id != 2 {
		t.Fatalf("ID(0010) = %d/%v, want 2", id, ok)
	}
}

func TestBitsOutOfRange(t *testing.T) {
	tr := figure1Tree(t)
	for _, id := range []int{0, -3, 10, 100} {
		if _, ok := tr.Bits(id); ok {
			t.Errorf("Bits(%d) should not be found", id)
		}
	}
}

func TestIDAbsent(t *testing.T) {
	tr := figure1Tree(t)
	for _, bits := range []string{"0000", "0101", "1110", "1001", "0111"} {
		if id, ok := tr.ID(bitset.MustFromString(bits)); ok {
			t.Errorf("ID(%s) = %d, want not found", bits, id)
		}
		if id, ok := tr.IDDirect(bitset.MustFromString(bits)); ok {
			t.Errorf("IDDirect(%s) = %d, want not found", bits, id)
		}
	}
	for _, bits := range []string{"00010", "001"} {
		if _, ok := tr.ID(bitset.MustFromString(bits)); ok {
			t.Errorf("ID(%s) with wrong width should not be found", bits)
		}
		if _, ok := tr.IDDirect(bitset.MustFromString(bits)); ok {
			t.Errorf("IDDirect(%s) with wrong width should not be found", bits)
		}
	}
}

func TestCompressionSavesNodes(t *testing.T) {
	tr := figure1Tree(t)
	if tr.NumNodes() >= tr.NumNodesUncompressed() {
		t.Fatalf("compression did not shrink the tree: %d vs %d",
			tr.NumNodes(), tr.NumNodesUncompressed())
	}
	if tr.SizeBytes() >= tr.SizeBytesUncompressed() {
		t.Fatalf("compressed size %d not smaller than %d",
			tr.SizeBytes(), tr.SizeBytesUncompressed())
	}
}

func TestBuildErrors(t *testing.T) {
	// Both states are reachable from corrupt summary streams, so Build
	// must return errors, not panic (MustBuild panics for in-process
	// misuse).
	if _, err := Build(nil); err == nil {
		t.Error("Build(nil) did not error")
	}
	if _, err := Build([]*bitset.Bitset{bitset.New(3), bitset.New(4)}); err == nil {
		t.Error("Build with mixed widths did not error")
	}
	t.Run("MustBuild panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("MustBuild(nil) did not panic")
			}
		}()
		MustBuild(nil)
	})
}

func TestSinglePid(t *testing.T) {
	// One pid: the whole tree is (almost) one trimmed chain.
	p := bitset.MustFromString("0000001")
	tr := MustBuild([]*bitset.Bitset{p})
	got, ok := tr.Bits(1)
	if !ok || !got.Equal(p) {
		t.Fatalf("Bits(1) = %v/%v", got, ok)
	}
	id, ok := tr.ID(p)
	if !ok || id != 1 {
		t.Fatalf("ID = %d/%v", id, ok)
	}
}

func TestAllOnesAllZeros(t *testing.T) {
	// Pure chains on both sides of the root.
	pids := []*bitset.Bitset{
		bitset.MustFromString("00001"),
		bitset.MustFromString("11111"),
		bitset.MustFromString("10000"),
	}
	tr := MustBuild(pids)
	for want := 1; want <= 3; want++ {
		b, ok := tr.Bits(want)
		if !ok {
			t.Fatalf("Bits(%d) missing", want)
		}
		id, ok := tr.ID(b)
		if !ok || id != want {
			t.Fatalf("ID(%s) = %d/%v, want %d", b, id, ok, want)
		}
	}
}

// randomPids builds a set of n distinct random nonzero pids. n is
// capped at the number of distinct nonzero sequences of the width.
func randomPids(rng *rand.Rand, width, n int) []*bitset.Bitset {
	if width < 30 {
		if max := 1<<uint(width) - 1; n > max {
			n = max
		}
	}
	seen := map[string]bool{}
	var out []*bitset.Bitset
	for len(out) < n {
		b := bitset.New(width)
		for pos := 1; pos <= width; pos++ {
			if rng.Intn(2) == 1 {
				b.Set(pos)
			}
		}
		if b.IsZero() {
			continue // a path id always has at least one bit
		}
		if !seen[b.Key()] {
			seen[b.Key()] = true
			out = append(out, b)
		}
	}
	return out
}

// Property: Bits and ID are mutually inverse over every indexed pid,
// and ID agrees with the binary-search fast path.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, w, c uint8) bool {
		width := int(w%60) + 2
		n := int(c)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		pids := randomPids(rng, width, n)
		tr := MustBuild(pids)
		for id := 1; id <= tr.NumIDs(); id++ {
			b, ok := tr.Bits(id)
			if !ok {
				return false
			}
			back, ok := tr.ID(b)
			if !ok || back != id {
				return false
			}
			direct, ok := tr.IDDirect(b)
			if !ok || direct != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: ids are assigned in strictly ascending bit-sequence order.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, w, c uint8) bool {
		width := int(w%40) + 2
		n := int(c)%30 + 2
		rng := rand.New(rand.NewSource(seed))
		tr := MustBuild(randomPids(rng, width, n))
		prev, _ := tr.Bits(1)
		for id := 2; id <= tr.NumIDs(); id++ {
			cur, ok := tr.Bits(id)
			if !ok || prev.String() >= cur.String() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: compression never loses information and never grows the
// tree.
func TestQuickCompressionLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 4 + rng.Intn(80)
		n := 1 + rng.Intn(60)
		pids := randomPids(rng, width, n)
		tr := MustBuild(pids)
		if tr.NumNodes() > tr.NumNodesUncompressed() {
			return false
		}
		// Every original pid must still resolve.
		for _, p := range pids {
			id, ok := tr.ID(p)
			if !ok {
				return false
			}
			b, ok := tr.Bits(id)
			if !ok || !b.Equal(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestXMarkLikeCompression checks the Table 3 *shape*: for documents
// with many long sparse pids, the compressed tree is far smaller than
// the raw pid table... at least 50% smaller, echoing the paper's 78%
// saving on XMark.
func TestXMarkLikeCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	width := 344
	var pids []*bitset.Bitset
	seen := map[string]bool{}
	for len(pids) < 1500 {
		b := bitset.New(width)
		// Sparse: a few set bits clustered like subtree labels.
		start := 1 + rng.Intn(width-8)
		for k := 0; k < 1+rng.Intn(6); k++ {
			b.Set(start + rng.Intn(8))
		}
		if !seen[b.Key()] {
			seen[b.Key()] = true
			pids = append(pids, b)
		}
	}
	tr := MustBuild(pids)
	rawBytes := len(pids) * ((width + 7) / 8)
	if tr.SizeBytes() >= rawBytes/2 {
		t.Fatalf("compressed tree %dB vs raw table %dB: want > 50%% saving",
			tr.SizeBytes(), rawBytes)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pids := randomPids(rng, 344, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustBuild(pids)
	}
}

func BenchmarkLookupID(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pids := randomPids(rng, 344, 1000)
	tr := MustBuild(pids)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.ID(pids[i%len(pids)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
