// Package difftest is the randomized differential-correctness harness:
// it manufactures (document, query) pairs far nastier than the three
// datagen datasets, compares the exact evaluator against the estimator
// run six independent ways, enforces the paper's hard invariants
// (§2 Cases 1–2 exactness, non-negativity, the tag-frequency bound,
// predicate monotonicity, bit-identity across estimator paths), and
// shrinks any failing pair to a minimal repro that can be committed to
// the regression corpus under corpus/.
//
// Everything is seeded and pure: a failure report carries the seed that
// reproduces it, and the shrinker is deterministic, so the same seed
// always yields the same minimal repro. docs/TESTING.md documents the
// workflow.
package difftest

import (
	"math/rand"

	"xpathest/internal/xmltree"
)

// DocConfig controls one random document. The zero value is replaced
// by DefaultDocConfig-style fields drawn from the seed itself, so the
// harness sweeps the configuration space as it sweeps seeds.
type DocConfig struct {
	// Alphabet is the number of distinct tags (≥ 1).
	Alphabet int

	// MaxDepth bounds the tree depth (root at depth 1).
	MaxDepth int

	// MaxNodes bounds the total element count; generation stops adding
	// children once reached.
	MaxNodes int

	// FanoutSkew picks the children-per-node distribution: 0 uniform,
	// 1 zipf-ish (a few huge fanouts, many leaves), 2 bimodal (either
	// barren or bushy).
	FanoutSkew int

	// Recursive allows a tag to reappear below itself. Recursion is
	// exactly what voids Theorem 4.1's exactness premise, so the
	// harness needs both populations.
	Recursive bool

	// SiblingPattern shapes sibling order: 0 shuffled, 1 runs of equal
	// tags (AAABBB), 2 strict alternation (ABABAB) — order-axis
	// statistics react to all three differently.
	SiblingPattern int
}

// docConfigFromSeed derives a configuration from the seed so that a
// single integer both reproduces the document and names its shape.
func docConfigFromSeed(seed int64) DocConfig {
	rng := rand.New(rand.NewSource(seed ^ 0x5e5e5e))
	return DocConfig{
		Alphabet:       2 + rng.Intn(9),    // 2..10 tags
		MaxDepth:       3 + rng.Intn(6),    // 3..8
		MaxNodes:       20 + rng.Intn(181), // 20..200
		FanoutSkew:     rng.Intn(3),
		Recursive:      rng.Intn(3) == 0, // one third recursive
		SiblingPattern: rng.Intn(3),
	}
}

// GenDoc builds the random document of one seed: configuration and
// content are both derived from it. The result is deterministic.
func GenDoc(seed int64) *xmltree.Document {
	return GenDocConfig(seed, docConfigFromSeed(seed))
}

// GenDocConfig builds a random document under an explicit
// configuration (the shrinker and tests pin configurations directly).
func GenDocConfig(seed int64, cfg DocConfig) *xmltree.Document {
	if cfg.Alphabet < 1 {
		cfg.Alphabet = 1
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.MaxNodes < 1 {
		cfg.MaxNodes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	tags := make([]string, cfg.Alphabet)
	for i := range tags {
		tags[i] = tagName(i)
	}

	b := xmltree.NewBuilder()
	nodes := 1
	b.Open(tags[0])

	var grow func(depth, tagIdx int)
	grow = func(depth, tagIdx int) {
		if depth >= cfg.MaxDepth || nodes >= cfg.MaxNodes {
			return
		}
		fan := fanout(rng, cfg.FanoutSkew)
		if fan == 0 {
			return
		}
		childTags := siblingTags(rng, cfg, tags, tagIdx, fan)
		for _, ti := range childTags {
			if nodes >= cfg.MaxNodes {
				return
			}
			nodes++
			b.Open(tags[ti])
			if rng.Intn(4) == 0 {
				b.Text("t")
			}
			grow(depth+1, ti)
			b.Close()
		}
	}
	grow(1, 0)
	b.Close()
	return b.Document()
}

// tagName yields a, b, ..., z, t26, t27, ...
func tagName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return "t" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	w := len(buf)
	for i > 0 {
		w--
		buf[w] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[w:])
}

// fanout draws a child count under the configured skew.
func fanout(rng *rand.Rand, skew int) int {
	switch skew {
	case 1: // zipf-ish: mostly 0–2, occasionally large
		r := rng.Intn(16)
		switch {
		case r < 8:
			return rng.Intn(2)
		case r < 14:
			return 1 + rng.Intn(3)
		default:
			return 4 + rng.Intn(8)
		}
	case 2: // bimodal: barren or bushy
		if rng.Intn(2) == 0 {
			return 0
		}
		return 3 + rng.Intn(4)
	default: // uniform 0..4
		return rng.Intn(5)
	}
}

// siblingTags picks the tag of each child and arranges sibling order
// per the configured pattern. Non-recursive configurations never reuse
// the parent's tag (or a smaller index, which keeps every root-to-leaf
// path strictly increasing and therefore recursion-free).
func siblingTags(rng *rand.Rand, cfg DocConfig, tags []string, parentIdx, fan int) []int {
	// Candidate tag indices for children.
	var cand []int
	if cfg.Recursive {
		for i := range tags {
			cand = append(cand, i)
		}
	} else {
		for i := parentIdx + 1; i < len(tags); i++ {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	out := make([]int, 0, fan)
	switch cfg.SiblingPattern {
	case 1: // runs: AAABBB...
		for len(out) < fan {
			t := cand[rng.Intn(len(cand))]
			run := 1 + rng.Intn(3)
			for r := 0; r < run && len(out) < fan; r++ {
				out = append(out, t)
			}
		}
	case 2: // alternation: ABABAB
		a := cand[rng.Intn(len(cand))]
		c := cand[rng.Intn(len(cand))]
		for i := 0; i < fan; i++ {
			if i%2 == 0 {
				out = append(out, a)
			} else {
				out = append(out, c)
			}
		}
	default: // shuffled
		for i := 0; i < fan; i++ {
			out = append(out, cand[rng.Intn(len(cand))])
		}
	}
	return out
}

// IsRecursive reports whether any tag repeats on some root-to-leaf
// path of the document — the condition under which Theorem 4.1's
// exactness premise (and therefore the case12-exact invariant) does
// not apply.
func IsRecursive(doc *xmltree.Document) bool {
	rec := false
	onPath := map[string]int{}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if rec {
			return
		}
		if onPath[n.Tag] > 0 {
			rec = true
			return
		}
		onPath[n.Tag]++
		for _, c := range n.Children {
			walk(c)
		}
		onPath[n.Tag]--
	}
	if doc.Root != nil {
		walk(doc.Root)
	}
	return rec
}
