package bitset

import (
	"math/rand"
	"testing"
)

// buildArena packs the given bitsets (all of one width) into a columnar
// arena via AppendWords and returns it with the word stride.
func buildArena(t *testing.T, sets []*Bitset) ([]uint64, int) {
	t.Helper()
	if len(sets) == 0 {
		return nil, 0
	}
	stride := (sets[0].Width() + wordBits - 1) / wordBits
	arena := make([]uint64, 0, len(sets)*stride)
	for _, b := range sets {
		n := len(arena)
		arena = b.AppendWords(arena)
		if len(arena)-n != stride {
			t.Fatalf("AppendWords appended %d words, want stride %d", len(arena)-n, stride)
		}
	}
	return arena, stride
}

func randomSets(rng *rand.Rand, width, n int) []*Bitset {
	sets := make([]*Bitset, n)
	for i := range sets {
		b := New(width)
		for pos := 1; pos <= width; pos++ {
			if rng.Intn(3) == 0 {
				b.Set(pos)
			}
		}
		sets[i] = b
	}
	return sets
}

func TestAppendWordsCopies(t *testing.T) {
	b := MustFromString("1010")
	arena := b.AppendWords(nil)
	arena[0] = 0
	if b.String() != "1010" {
		t.Fatalf("mutating the appended words changed the bitset: %s", b)
	}
}

// TestWordsAgainstBitsets is the equivalence property: every *Words
// verdict over an arena must agree with the pointer-based Bitset
// operations the arena rows were packed from, across widths on both
// sides of the one-word fast path.
func TestWordsAgainstBitsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 7, 64, 65, 130, 200} {
		sets := randomSets(rng, width, 24)
		arena, stride := buildArena(t, sets)
		idxs := make([]int32, len(sets))
		for i := range sets {
			idxs[i] = int32(i)
		}
		for i, a := range sets {
			for j, b := range sets {
				want := a.ContainsOrEqual(b)
				got := ContainsWords(arena, i*stride, j*stride, stride)
				if got != want {
					t.Fatalf("width %d: ContainsWords(%d,%d)=%v, Bitset says %v", width, i, j, got, want)
				}
			}
			// Any-sweeps against every suffix exercise both empty and
			// full candidate lists.
			for lo := 0; lo <= len(sets); lo++ {
				wantAny := false
				for _, b := range sets[lo:] {
					if a.ContainsOrEqual(b) {
						wantAny = true
						break
					}
				}
				if got := ContainsAnyWords(arena, i*stride, stride, idxs[lo:]); got != wantAny {
					t.Fatalf("width %d: ContainsAnyWords(%d, idxs[%d:])=%v, want %v", width, i, lo, got, wantAny)
				}
				wantRev := false
				for _, b := range sets[lo:] {
					if b.ContainsOrEqual(a) {
						wantRev = true
						break
					}
				}
				if got := AnyContainsWords(arena, i*stride, stride, idxs[lo:]); got != wantRev {
					t.Fatalf("width %d: AnyContainsWords(%d, idxs[%d:])=%v, want %v", width, i, lo, got, wantRev)
				}
			}
		}
	}
}
