// Package pidtree implements the path-id binary tree of Section 6 of
// the paper: a binary trie that indexes the distinct path ids of a
// document by compact integer id, so that summaries (histograms) can
// store small integers instead of full bit sequences.
//
// Structure (Figure 6):
//
//   - every left edge represents bit 0, every right edge bit 1;
//   - every leaf represents one path id; concatenating the edge bits
//     from the root spells the id's bit sequence;
//   - every internal node carries the largest path-id integer in its
//     left subtree (or one less than the least value of its right
//     subtree when the left is empty), so integer ids can be located
//     by binary search while descending.
//
// Path ids are numbered 1..n in ascending bit-sequence order, which is
// exactly the p1..p9 numbering of Figure 1(c).
//
// Panic policy: Build validates an arbitrary list and returns an error
// for an empty list or inconsistent widths. MustBuild panics on those
// errors and is for lists that cannot have them. The distinct list of
// a pathenc.Labeling is one: labeling a document yields at least one
// pid (every document has a root element) and every pid is as wide as
// the encoding table, and the summaryio decoder refuses a dictionary
// of fewer than one pid and reads each pid at the table's width. The
// summary's Sizes builds the tree that way, on each call, from its
// labeling; nothing on the estimation path reads the tree.
//
// The tree is compressed losslessly: a left (right) subtree consisting
// only of left (right) edges — a pure all-0 (all-1) suffix chain — is
// removed together with its incoming edge (the dotted region of
// Figure 6). Lookups reconstruct the implied suffix.
package pidtree

import (
	"fmt"
	"slices"
	"sort"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
)

// node is one trie node. Leaves have leaf=true and id = pid integer.
// Internal nodes use id for search navigation. A set leftTrim means the
// left child was a pure-0 chain ending at the leaf whose integer is
// exactly this node's id (the max of its left subtree). A set rightTrim
// means the right child was a pure-1 chain ending at the leaf whose
// integer is rightTrimID.
type node struct {
	id          int
	left, right *node
	leaf        bool
	leftTrim    bool
	rightTrim   bool
	rightTrimID int
}

// Tree is a compressed path-id binary tree over the distinct path ids
// of one document.
type Tree struct {
	root  *node
	width int
	// ids holds the distinct pids sorted ascending by bit-sequence
	// value; ids[i] has integer id i+1.
	ids []*bitset.Bitset

	uncompressedNodes int
	compressedNodes   int
}

// Build constructs the tree from the document's distinct path ids. The
// input order is irrelevant; ids are assigned by ascending bit-sequence
// value. Build returns an error if pids is empty or widths are
// inconsistent — both states are reachable from corrupt summary
// streams and must not crash a serving process.
func Build(pids []*bitset.Bitset) (*Tree, error) {
	if len(pids) == 0 {
		return nil, fmt.Errorf("pidtree: no path ids: %w", guard.ErrInvalidArgument)
	}
	width := pids[0].Width()
	sorted := make([]*bitset.Bitset, len(pids))
	copy(sorted, pids)
	for _, p := range sorted {
		if p.Width() != width {
			return nil, fmt.Errorf("pidtree: inconsistent path id widths (%d vs %d): %w", p.Width(), width, guard.ErrInvalidArgument)
		}
	}
	slices.SortFunc(sorted, bitset.Compare)

	t := &Tree{width: width, ids: sorted}
	t.root = t.build(0, len(sorted), 0)
	t.uncompressedNodes = countNodes(t.root)
	if t.root != nil {
		compress(t.root)
	}
	t.compressedNodes = countNodes(t.root)
	return t, nil
}

// MustBuild is Build that panics on error, for lists that cannot be
// empty or mixed-width, such as a pathenc.Labeling's Distinct() (see
// the package comment).
func MustBuild(pids []*bitset.Bitset) *Tree {
	t, err := Build(pids)
	if err != nil {
		panic(err)
	}
	return t
}

// build constructs the trie for ids[lo:hi] (sorted), all sharing the
// first `depth` bits.
func (t *Tree) build(lo, hi, depth int) *node {
	if lo >= hi {
		return nil
	}
	if depth == t.width {
		// All bits consumed: exactly one pid remains (they are distinct).
		return &node{id: lo + 1, leaf: true}
	}
	// Partition on bit depth+1: zeros sort before ones.
	mid := lo + sort.Search(hi-lo, func(i int) bool { return t.ids[lo+i].Test(depth + 1) })
	n := &node{}
	n.left = t.build(lo, mid, depth+1)
	n.right = t.build(mid, hi, depth+1)
	if n.left != nil {
		n.id = mid // largest id in left subtree (ids are lo+1..mid)
	} else {
		n.id = mid // one less than least value in right subtree (mid+1)
	}
	return n
}

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// pureLeft reports whether the subtree rooted at n consists only of
// left edges (after children have been compressed).
func pureLeft(n *node) bool {
	if n.leaf {
		return true
	}
	if n.right != nil || n.rightTrim {
		return false
	}
	if n.leftTrim {
		return n.left == nil
	}
	return n.left != nil && pureLeft(n.left)
}

func pureRight(n *node) bool {
	if n.leaf {
		return true
	}
	if n.left != nil || n.leftTrim {
		return false
	}
	if n.rightTrim {
		return n.right == nil
	}
	return n.right != nil && pureRight(n.right)
}

// maxID returns the largest leaf id in the subtree (which, for a pure
// chain, is its only leaf).
func maxID(n *node) int {
	for !n.leaf {
		if n.right != nil {
			n = n.right
			continue
		}
		if n.rightTrim {
			return n.rightTrimID
		}
		if n.left != nil {
			n = n.left
			continue
		}
		// leftTrim: the trimmed chain's leaf id equals n.id.
		return n.id
	}
	return n.id
}

// compress trims pure-0 left chains and pure-1 right chains bottom-up.
func compress(n *node) {
	if n.leaf {
		return
	}
	if n.left != nil {
		compress(n.left)
		if pureLeft(n.left) {
			// The chain's single leaf has the max id of the left
			// subtree, which is already n.id.
			n.left = nil
			n.leftTrim = true
		}
	}
	if n.right != nil {
		compress(n.right)
		if pureRight(n.right) {
			n.rightTrimID = maxID(n.right)
			n.right = nil
			n.rightTrim = true
		}
	}
}

// Width returns the bit width of the indexed path ids.
func (t *Tree) Width() int { return t.width }

// NumIDs returns the number of distinct path ids indexed.
func (t *Tree) NumIDs() int { return len(t.ids) }

// Bits returns the bit sequence of the path id with the given integer
// id (1-based), reconstructing it by navigating the compressed tree as
// described in Section 6. ok is false when the id is out of range.
func (t *Tree) Bits(id int) (*bitset.Bitset, bool) {
	if id < 1 || id > len(t.ids) {
		return nil, false
	}
	out := bitset.New(t.width)
	cur := t.root
	depth := 0
	for cur != nil && !cur.leaf {
		if id <= cur.id {
			depth++
			// Left edge: bit stays 0.
			if cur.left != nil {
				cur = cur.left
				continue
			}
			if cur.leftTrim {
				// Implied all-0 suffix (bit `depth` and all below).
				return out, true
			}
			return nil, false
		}
		depth++
		out.Set(depth)
		if cur.right != nil {
			cur = cur.right
			continue
		}
		if cur.rightTrim {
			for pos := depth + 1; pos <= t.width; pos++ {
				out.Set(pos)
			}
			return out, true
		}
		return nil, false
	}
	if cur == nil {
		return nil, false
	}
	return out, true
}

// ID returns the integer id of the given bit sequence, navigating the
// compressed tree edge by edge. ok is false when the sequence is not
// indexed.
func (t *Tree) ID(b *bitset.Bitset) (int, bool) {
	if b.Width() != t.width {
		return 0, false
	}
	cur := t.root
	for depth := 0; cur != nil; {
		if cur.leaf {
			if depth == t.width {
				return cur.id, true
			}
			return 0, false
		}
		if depth == t.width {
			return 0, false
		}
		depth++
		if !b.Test(depth) {
			if cur.left != nil {
				cur = cur.left
				continue
			}
			if cur.leftTrim && zeroFrom(b, depth+1) {
				return cur.id, true
			}
			return 0, false
		}
		if cur.right != nil {
			cur = cur.right
			continue
		}
		if cur.rightTrim && onesFrom(b, depth+1) {
			return cur.rightTrimID, true
		}
		return 0, false
	}
	return 0, false
}

func zeroFrom(b *bitset.Bitset, pos int) bool {
	for ; pos <= b.Width(); pos++ {
		if b.Test(pos) {
			return false
		}
	}
	return true
}

func onesFrom(b *bitset.Bitset, pos int) bool {
	for ; pos <= b.Width(); pos++ {
		if !b.Test(pos) {
			return false
		}
	}
	return true
}

// IDDirect returns the integer id of a pid by binary search over the
// sorted id table. It is the fast path used internally; ID exists to
// exercise and validate the compressed navigation structure.
func (t *Tree) IDDirect(b *bitset.Bitset) (int, bool) {
	if b.Width() != t.width {
		return 0, false
	}
	if i, ok := slices.BinarySearchFunc(t.ids, b, bitset.Compare); ok {
		return i + 1, true
	}
	return 0, false
}

// NumNodes returns the node count of the compressed tree.
func (t *Tree) NumNodes() int { return t.compressedNodes }

// NumNodesUncompressed returns the node count before trimming.
func (t *Tree) NumNodesUncompressed() int { return t.uncompressedNodes }

// perNodeBytes is the serialized cost of one materialized trie node: a
// 4-byte id plus 1 byte of structure flags (leaf/left/right/trim
// bits). Trimmed right chains store their 4-byte leaf id explicitly.
const perNodeBytes = 5

// SizeBytes estimates the serialized size of the compressed tree — the
// "Pid Bin-Tree" column of Table 3, to be compared against the raw
// path-id table (Labeling.PidTableSizeBytes).
//
// The serialized layout collapses unary chains: only branching nodes
// and leaves are materialized (there are at most 2·NumIDs−1 of them);
// each unary internal node on a chain contributes a single label bit
// to its incoming edge's bit string. The in-memory structure keeps
// explicit nodes for simple navigation; this models the on-disk form
// the paper's Table 3 sizes imply (e.g. 6811 XMark pids in 67.3 KB ≈
// 2·6811 five-byte nodes).
func (t *Tree) SizeBytes() int {
	var materialized, unaryBits, trimIDs int
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if n.rightTrim {
			trimIDs += 4
		}
		sides := 0
		if n.left != nil || n.leftTrim {
			sides++
		}
		if n.right != nil || n.rightTrim {
			sides++
		}
		if n.leaf || sides >= 2 {
			materialized++
		} else {
			unaryBits++
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
	return materialized*perNodeBytes + (unaryBits+7)/8 + trimIDs
}

// SizeBytesUncompressed estimates the serialized size without
// trimming, for reporting the compression saving of Table 3.
func (t *Tree) SizeBytesUncompressed() int {
	return t.uncompressedNodes * perNodeBytes
}
