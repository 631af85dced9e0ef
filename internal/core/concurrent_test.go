package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xpathest/internal/datagen"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/workload"
	"xpathest/internal/xpath"
)

// TestEstimatorConcurrent hammers one shared estimator from many
// goroutines. The kernel's snapshot and witness table fill lazily under
// concurrent readers, so this is the -race guard for the memo kernel;
// results must also stay bit-for-bit identical to a sequential run
// regardless of which goroutine fills which slot. The SSPlays case
// cycles a few hand-written shapes, every one of which must estimate;
// the XMark case (five-word rows, so the pivot-indexed sweeps) starts
// every goroutine at a different point of a random query set, so many
// witness slots fill at once and the table grows under readers.
func TestEstimatorConcurrent(t *testing.T) {
	t.Run("SSPlays", func(t *testing.T) {
		tbs := stats.Collect(datagen.SSPlays(datagen.Config{Seed: 7, Scale: 0.03}), nil)
		var paths []*xpath.Path
		for _, q := range []string{
			"//PLAY/ACT/SCENE/SPEECH",
			"//ACT[/SCENE/SPEECH/STAGEDIR]/SCENE/TITLE",
			"//PLAY[/FM/P]//SPEECH/LINE",
			"//SCENE[/SPEECH/SPEAKER]/SPEECH/LINE",
			"//SCENE[/SPEECH/folls::STAGEDIR]",
			"//PLAY/PERSONAE/PERSONA",
		} {
			paths = append(paths, xpath.MustParse(q))
		}
		hammer(t, tbs, paths, 20, len(paths))
	})
	t.Run("XMark", func(t *testing.T) {
		tbs := stats.Collect(datagen.XMark(datagen.Config{Seed: 1, Scale: 0.04}), nil)
		paths := workload.Random(tbs.Labeling, workload.RandomConfig{Seed: 3, Num: 160})
		hammer(t, tbs, paths, len(paths), 100)
	})
}

// hammer estimates paths sequentially on one estimator, of which at
// least minOK must estimate without error, then from 8 goroutines
// sharing a fresh one, each running rounds estimates from its own
// starting offset. Every concurrent result must match the sequential
// one bit for bit, and a query may fail concurrently only if it failed
// sequentially.
func hammer(t *testing.T, tbs *stats.Tables, paths []*xpath.Path, rounds, minOK int) {
	est := New(tbs.Labeling, TableSource{Tables: tbs})
	want := make([]float64, len(paths))
	wantErr := make([]error, len(paths))
	var failed []string
	for i, p := range paths {
		want[i], wantErr[i] = est.Estimate(p)
		if wantErr[i] != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", p, wantErr[i]))
		}
	}
	if ok := len(paths) - len(failed); ok < minOK {
		t.Fatalf("%d of %d queries estimate without error, want at least %d:\n%s",
			ok, len(paths), minOK, strings.Join(failed, "\n"))
	}

	// A fresh estimator per goroutine would defeat the point: every
	// goroutine shares est, so slot fills race with slot reads.
	est = New(tbs.Labeling, TableSource{Tables: tbs})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				j := (g*len(paths)/8 + i) % len(paths)
				v, err := est.Estimate(paths[j])
				if err != nil {
					if wantErr[j] == nil {
						t.Errorf("%s: concurrent error %v, sequential %v", paths[j], err, want[j])
						return
					}
					continue
				}
				if wantErr[j] != nil {
					t.Errorf("%s: concurrent %v, sequential error %v", paths[j], v, wantErr[j])
					return
				}
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Errorf("%s: concurrent %v != sequential %v", paths[j], v, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWitTableConcurrent races lock-free witness-table lookups against
// adds, the way kernel.witness uses the table: one writer (kernel.mu
// admits one at a time) fills fresh tables with every triple of a
// 64×32×2 grid, publishing each grown table, while readers look
// triples up throughout. A lookup must return nothing or the entry of
// exactly the triple asked for, and every triple must be found once
// the writer is done. The bad interleaving (a slot filled between two
// loads of one lookup) is narrow, hence the repeated fills and the
// lookups of triples never added.
func TestWitTableConcurrent(t *testing.T) {
	const anc, desc = 64, 32
	triple := func(i int) uint64 {
		return witTriple(int32(i/(2*desc)), int32(i/2%desc), pathenc.Axis(i&1))
	}
	// absent is never added: its every lookup ends at an empty slot,
	// which is the slot a concurrent add may fill.
	absent := func(i int) uint64 {
		return witTriple(int32(i/(2*desc)), int32(desc+i/2%desc), pathenc.Axis(i&1))
	}
	var cur atomic.Pointer[witTable]
	cur.Store(newWitTable(minWitSlots))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i = (i + 7) % (2 * anc * desc) {
				if e := cur.Load().lookup(triple(i)); e != nil && e.key != triple(i) {
					t.Errorf("lookup %#x returned the entry of %#x", triple(i), e.key)
					return
				}
				if e := cur.Load().lookup(absent(i)); e != nil {
					t.Errorf("lookup %#x, never added, returned the entry of %#x", absent(i), e.key)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 16; round++ {
		cur.Store(newWitTable(minWitSlots))
		for i := 0; i < 2*anc*desc; i++ {
			tab := cur.Load()
			if g := tab.add(&witEntry{key: triple(i)}); g != tab {
				cur.Store(g)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	tab := cur.Load()
	for i := 0; i < 2*anc*desc; i++ {
		if e := tab.lookup(triple(i)); e == nil || e.key != triple(i) {
			t.Fatalf("triple %#x missing after all adds", triple(i))
		}
	}
	if tab.n != 2*anc*desc || len(tab.slots) > 4*tab.n {
		t.Fatalf("table holds %d entries in %d slots; want %d in at most %d", tab.n, len(tab.slots), 2*anc*desc, 8*anc*desc)
	}
}
