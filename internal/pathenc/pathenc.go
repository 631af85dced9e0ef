// Package pathenc implements the path encoding scheme of Section 2 of
// the paper (originally from Li/Lee/Hsu, "A Path-Based Labeling Scheme
// for Efficient Structural Join", XSym 2005).
//
// Every distinct root-to-leaf tag path of a document is assigned an
// integer encoding (1-based, in order of first occurrence in document
// order) and recorded in an encoding table. Every element node is then
// labeled with a path id — a bit sequence whose width is the number of
// distinct paths:
//
//   - a leaf element sets exactly the bit of its root-to-leaf path;
//   - an internal element's path id is the bit-or of its children's.
//
// Panic policy: Build operates on documents that may ultimately come
// from untrusted input, so labeling failures (a leaf path missing from
// the encoding table, indicating a document mutated mid-build) are
// returned as errors; MustBuild panics on them and is for in-process
// trees (tests, generators) only. The remaining panics in this package
// — Path/PathTags encoding-range checks — guard programmer-error
// invariants: every encoding handed to them is produced by this
// package and validated at construction time.
//
// Path ids support the containment tests of Section 2 that the path
// join (Section 4) prunes with: strict containment of PidY by PidX
// guarantees every X-labeled node has a Y descendant, while equality
// signals at least one ancestor–descendant pair whose direction and
// distance are resolved by looking tag positions up in the encoding
// table.
package pathenc

import (
	"fmt"
	"strings"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/xmltree"
)

// Table is the encoding table: the bidirectional mapping between
// distinct root-to-leaf tag paths and their integer encodings
// (Figure 1(b)).
type Table struct {
	paths    []string   // paths[i-1] is the path with encoding i
	pathTags [][]string // split form of paths
	byPath   map[string]int

	// tagIDs interns every tag occurring on any path into a dense
	// 1-based id; pathTagIDs mirrors pathTags with tags replaced by
	// their ids. The witness scans on the join's hot path compare
	// these int32s instead of strings. Built by internTags once the
	// path set is complete, read-only afterwards.
	tagIDs     map[string]int32
	pathTagIDs [][]int32
}

// internTags builds the dense tag-id view of pathTags. Both table
// constructors call it after the last path is added.
func (t *Table) internTags() {
	t.tagIDs = make(map[string]int32)
	t.pathTagIDs = make([][]int32, len(t.pathTags))
	for i, tags := range t.pathTags {
		ids := make([]int32, len(tags))
		for j, tag := range tags {
			id, ok := t.tagIDs[tag]
			if !ok {
				id = int32(len(t.tagIDs)) + 1
				t.tagIDs[tag] = id
			}
			ids[j] = id
		}
		t.pathTagIDs[i] = ids
	}
}

// NumPaths returns the number of distinct root-to-leaf paths — the
// "#(Dist Paths)" column of Table 3 and the path-id width.
func (t *Table) NumPaths() int { return len(t.paths) }

// Path returns the slash-joined path with the given encoding (1-based).
func (t *Table) Path(enc int) string {
	if enc < 1 || enc > len(t.paths) {
		//lint:ignore panicpolicy documented programmer-error invariant: encodings come from this table, an out-of-range value mirrors a slice-index bug
		panic(fmt.Sprintf("pathenc: encoding %d out of range [1,%d]", enc, len(t.paths)))
	}
	return t.paths[enc-1]
}

// PathTags returns the tag sequence of the path with the given
// encoding. The returned slice must not be modified.
func (t *Table) PathTags(enc int) []string {
	if enc < 1 || enc > len(t.pathTags) {
		//lint:ignore panicpolicy documented programmer-error invariant: encodings come from this table, an out-of-range value mirrors a slice-index bug
		panic(fmt.Sprintf("pathenc: encoding %d out of range [1,%d]", enc, len(t.pathTags)))
	}
	return t.pathTags[enc-1]
}

// Encoding returns the encoding of a path string, or 0 if the path
// does not occur in the document.
func (t *Table) Encoding(path string) int { return t.byPath[path] }

// SizeBytes estimates the storage of the encoding table: each path is
// stored once as its tag string plus a 2-byte encoding. This is the
// "EncTab" column of Table 3.
func (t *Table) SizeBytes() int {
	n := 0
	for _, p := range t.paths {
		n += len(p) + 2
	}
	return n
}

// Relationship describes how two tags relate on a concrete
// root-to-leaf path.
type Relationship int

const (
	// RelNone means the two tags do not both occur on the path in the
	// required order.
	RelNone Relationship = iota
	// RelAncestor means the first tag occurs strictly above the second
	// somewhere on the path, at distance ≥ 2.
	RelAncestor
	// RelParent means the first tag occurs immediately above the
	// second somewhere on the path.
	RelParent
)

// TagRelationship reports the closest relationship between ancTag and
// descTag on the path with the given encoding. With recursive tags
// (e.g. XMark's parlist inside parlist) a tag may occur several times;
// RelParent wins over RelAncestor if any occurrence pair is adjacent.
func (t *Table) TagRelationship(enc int, ancTag, descTag string) Relationship {
	tags := t.PathTags(enc)
	rel := RelNone
	for i, tag := range tags {
		if tag != ancTag {
			continue
		}
		for j := i + 1; j < len(tags); j++ {
			if tags[j] != descTag {
				continue
			}
			if j == i+1 {
				return RelParent
			}
			rel = RelAncestor
		}
	}
	return rel
}

// Labeling is the complete path-id labeling of one document: the
// encoding table plus a path id for every element, with the distinct
// ids interned so identical bit sequences share storage (the path id
// table of Figure 1(c)).
type Labeling struct {
	Table *Table

	doc      *xmltree.Document
	pids     []*bitset.Bitset // indexed by node Ord; interned
	distinct []*bitset.Bitset // in first-interning order

	// index is the intern index, the only map keyed by a pid's value:
	// it is read where pids are made (the labeler, EstimationLabeling,
	// RecomputeAncestors). Everything downstream holds the interned
	// instances and keys them by pointer.
	index map[string]int // bitset key -> index into distinct
}

// NewTable builds an encoding table directly from path strings in
// encoding order (paths[0] gets encoding 1). It is the deserialization
// entry point for summaries shipped without their document.
func NewTable(paths []string) (*Table, error) {
	t := &Table{byPath: make(map[string]int, len(paths))}
	for i, p := range paths {
		if p == "" {
			return nil, fmt.Errorf("pathenc: empty path at encoding %d: %w", i+1, guard.ErrInvalidArgument)
		}
		if _, dup := t.byPath[p]; dup {
			return nil, fmt.Errorf("pathenc: duplicate path %q: %w", p, guard.ErrInvalidArgument)
		}
		t.paths = append(t.paths, p)
		t.pathTags = append(t.pathTags, strings.Split(p, "/"))
		t.byPath[p] = i + 1
	}
	t.internTags()
	return t, nil
}

// EstimationLabeling wraps an encoding table and the document's
// distinct path ids into a Labeling usable for estimation only: the
// per-element labels are absent (there is no document), but everything
// the estimator consults — the encoding table, containment tests and
// anchor segments — works. distinct may be nil when only join logic is
// needed. Its elements are interned in order, the first of equal ones
// becoming the canonical instance, so a list that repeats a pid yields
// fewer than len(distinct) distinct ids.
func EstimationLabeling(t *Table, distinct []*bitset.Bitset) *Labeling {
	l := &Labeling{Table: t, index: make(map[string]int, len(distinct))}
	for _, p := range distinct {
		l.intern(p)
	}
	return l
}

// Build labels every element of doc with its path id. It replays the
// tree through a PathCollector for the encoding table, then through a
// Labeler for the ids. An inconsistency between the passes (possible
// only if the tree is mutated concurrently) is reported as an error,
// never a panic.
func Build(doc *xmltree.Document) (*Labeling, error) {
	var paths PathCollector
	if doc.Root != nil {
		if err := doc.Root.Replay(&paths); err != nil {
			return nil, err
		}
	}
	tbl, err := paths.Table()
	if err != nil {
		return nil, err
	}
	l := &Labeling{Table: tbl, doc: doc, index: make(map[string]int)}
	if doc.Root != nil {
		l.pids, err = l.label(doc.Root, "", doc.NumElements())
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, guard.ErrInternal)
		}
	}
	return l, nil
}

// MustBuild is Build that panics on error, for in-process-constructed
// documents (tests, generators) where a labeling failure is a
// programmer error.
func MustBuild(doc *xmltree.Document) *Labeling {
	l, err := Build(doc)
	if err != nil {
		panic(err)
	}
	return l
}

// openPath is the slash-joined root-to-element path of the open
// elements ("Root/A/B" while Root, A and B are open), so a leaf's path
// is read off as it closes instead of re-joined from its tags.
type openPath struct {
	buf   []byte
	start []int  // per open element: len(buf) before its tag
	inner []bool // per open element: whether a child has opened
}

func (p *openPath) open(tag string) {
	if n := len(p.inner); n > 0 {
		p.inner[n-1] = true
	}
	p.start = append(p.start, len(p.buf))
	if len(p.buf) > 0 {
		p.buf = append(p.buf, '/')
	}
	p.buf = append(p.buf, tag...)
	p.inner = append(p.inner, false)
}

// close pops the innermost element and returns its path if it is a
// leaf, valid until the next open, or nil.
func (p *openPath) close() []byte {
	n := len(p.start) - 1
	var leaf []byte
	if !p.inner[n] {
		leaf = p.buf
	}
	p.buf = p.buf[:p.start[n]]
	p.start, p.inner = p.start[:n], p.inner[:n]
	return leaf
}

// PathCollector is the xmltree.Handler that gathers the distinct
// root-to-leaf paths in first-occurrence document order, the input of
// the encoding table.
type PathCollector struct {
	path  openPath
	seen  map[string]bool
	paths []string
}

func (c *PathCollector) Open(tag string) { c.path.open(tag) }

func (c *PathCollector) Text([]byte) {}

func (c *PathCollector) Close() error {
	if leaf := c.path.close(); leaf != nil && !c.seen[string(leaf)] {
		if c.seen == nil {
			c.seen = make(map[string]bool)
		}
		p := string(leaf)
		c.seen[p] = true
		c.paths = append(c.paths, p)
	}
	return nil
}

// Table returns the encoding table of the paths collected so far.
func (c *PathCollector) Table() (*Table, error) { return NewTable(c.paths) }

// Labeler assigns path ids from element events: a leaf gets the bit of
// its path's encoding, an inner element the bit-or of its children's
// ids, and each id is interned as its element closes — post-order, the
// order of Distinct.
type Labeler struct {
	l    *Labeling
	path openPath
	acc  []*bitset.Bitset // per open element: or of its closed children, nil before the first
}

// NewLabeler returns a Labeler interning into l, for events from the
// document root.
func NewLabeler(l *Labeling) *Labeler { return &Labeler{l: l} }

// Open starts an element.
func (lb *Labeler) Open(tag string) {
	lb.path.open(tag)
	lb.acc = append(lb.acc, nil)
}

// Close ends the innermost open element and returns its interned path
// id. A leaf whose path is not in the encoding table fails with an
// error wrapping ErrPathUnknown.
func (lb *Labeler) Close() (*bitset.Bitset, error) {
	n := len(lb.acc) - 1
	pid := lb.acc[n]
	lb.acc = lb.acc[:n]
	if leaf := lb.path.close(); leaf != nil {
		var err error
		if pid, err = lb.l.Table.leafPid(leaf); err != nil {
			return nil, err
		}
	}
	pid = lb.l.intern(pid)
	if n > 0 {
		if up := lb.acc[n-1]; up == nil {
			lb.acc[n-1] = pid.Clone()
		} else {
			up.Or(pid)
		}
	}
	return pid, nil
}

// leafPid returns the path id of a leaf with the given root-to-leaf
// path: the single bit of the path's encoding.
func (t *Table) leafPid(path []byte) (*bitset.Bitset, error) {
	enc := t.byPath[string(path)]
	if enc == 0 {
		return nil, fmt.Errorf("%w: %s", ErrPathUnknown, path)
	}
	pid := bitset.New(t.NumPaths())
	pid.Set(enc)
	return pid, nil
}

// preorder is the xmltree.Handler that labels a replayed subtree and
// keeps each element's id at its preorder rank, the order of Node.Ord.
type preorder struct {
	lb   *Labeler
	pids []*bitset.Bitset
	rank []int // per open element
}

func (p *preorder) Open(tag string) {
	p.rank = append(p.rank, len(p.pids))
	p.pids = append(p.pids, nil)
	p.lb.Open(tag)
}

func (p *preorder) Text([]byte) {}

func (p *preorder) Close() error {
	pid, err := p.lb.Close()
	if err != nil {
		return err
	}
	n := len(p.rank) - 1
	p.pids[p.rank[n]] = pid
	p.rank = p.rank[:n]
	return nil
}

// label returns the ids of n's subtree in preorder; prefix is the path
// of n's parent and size the subtree's element count, if known.
func (l *Labeling) label(n *xmltree.Node, prefix string, size int) ([]*bitset.Bitset, error) {
	p := preorder{lb: &Labeler{l: l, path: openPath{buf: []byte(prefix)}}, pids: make([]*bitset.Bitset, 0, size)}
	err := n.Replay(&p)
	return p.pids, err
}

// intern returns the canonical copy of pid, registering it if new.
func (l *Labeling) intern(pid *bitset.Bitset) *bitset.Bitset {
	key := pid.Key()
	if i, ok := l.index[key]; ok {
		return l.distinct[i]
	}
	l.index[key] = len(l.distinct)
	l.distinct = append(l.distinct, pid)
	return pid
}

// PidOf returns the interned path id of a node.
func (l *Labeling) PidOf(n *xmltree.Node) *bitset.Bitset { return l.pids[n.Ord] }

// Distinct returns all distinct path ids in first-interning order. The
// slice must not be modified. Its length is the "#(Dist Pid)" column
// of Table 3.
func (l *Labeling) Distinct() []*bitset.Bitset { return l.distinct }

// NumDistinct returns the number of distinct path ids in the document.
func (l *Labeling) NumDistinct() int { return len(l.distinct) }

// PidWidth returns the width of every path id in bits (= NumPaths).
func (l *Labeling) PidWidth() int { return l.Table.NumPaths() }

// PidSizeBytes returns the byte size of a single stored path id — the
// "Pid Size" column of Table 3.
func (l *Labeling) PidSizeBytes() int { return (l.PidWidth() + 7) / 8 }

// PidTableSizeBytes returns the storage of the raw path id table
// (every distinct bit sequence spelled out) — the "PidTab" column of
// Table 3, which the compressed binary tree of package pidtree is
// measured against.
func (l *Labeling) PidTableSizeBytes() int {
	return l.NumDistinct() * l.PidSizeBytes()
}

// Axis distinguishes the two downward axes of the query language.
type Axis int

const (
	// Child is the XPath child axis ("/").
	Child Axis = iota
	// Descendant is the XPath descendant axis ("//").
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// EdgeCompatible reports whether an element with tag ancTag and path
// id ancPid can stand in the given axis relationship above an element
// with tag descTag and path id descPid. This is the pruning test of
// the path join (Section 4):
//
//   - the ancestor's pid must contain or equal the descendant's
//     (necessary, because every root-to-leaf path through a node also
//     passes through all its ancestors);
//   - some common root-to-leaf path must witness the two tags at a
//     compatible distance (adjacent for Child), resolved from the
//     encoding table as in Examples 2.2 and 2.3.
func (l *Labeling) EdgeCompatible(ancTag string, ancPid *bitset.Bitset, descTag string, descPid *bitset.Bitset, axis Axis) bool {
	return ancPid.ContainsOrEqual(descPid) &&
		l.PathWitness(ancTag, descTag, descPid, axis)
}

// PathWitness is the witness half of EdgeCompatible, factored out
// because it does not depend on the ancestor's pid at all: whether
// some root-to-leaf path of descPid carries ancTag above descTag at an
// axis-compatible distance is a function of (ancTag, descTag, axis,
// descPid) only. The estimator's kernel exploits this to memoize one
// witness bit per descendant pid instead of one verdict per (ancestor,
// descendant) pid pair, leaving pure bit containment in its inner
// loop.
func (l *Labeling) PathWitness(ancTag, descTag string, descPid *bitset.Bitset, axis Axis) bool {
	// A tag missing from the table occurs on no path, so no witness
	// can exist.
	t := l.Table
	ancID, ok := t.tagIDs[ancTag]
	if !ok {
		return false
	}
	descID, ok := t.tagIDs[descTag]
	if !ok {
		return false
	}
	// In EdgeCompatible both tags occur on every path of descPid (the
	// descendant sits on all of them; the ancestor spans a superset).
	// Scan those paths for a witness — the interned-tag form of
	// TagRelationship, with the tag-id lookups hoisted out of the
	// per-path loop. ForEachOne keeps the test allocation-free.
	found := false
	descPid.ForEachOne(func(enc int) bool {
		ids := t.pathTagIDs[enc-1]
		for i, id := range ids {
			if id != ancID {
				continue
			}
			for j := i + 1; j < len(ids); j++ {
				if ids[j] != descID {
					continue
				}
				// Adjacent occurrences witness both axes; a wider gap
				// only the descendant axis.
				if j == i+1 || axis == Descendant {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// AnchorSegment supports the preceding/following rewriting of
// Example 5.3. Given the tag of the last trunk node (the common
// context, e.g. A) and the path id of the node reached through the
// order axis (e.g. D with p5), it decomposes the pid into its
// root-to-leaf paths and returns, for each, the tag segment from the
// child of the context (the sibling anchor, e.g. B) down to the target
// tag inclusive: ["B", "D"]. Segments are deduplicated.
func (l *Labeling) AnchorSegment(contextTag string, targetTag string, pid *bitset.Bitset) [][]string {
	var out [][]string
	seen := make(map[string]bool)
	pid.ForEachOne(func(enc int) bool {
		tags := l.Table.PathTags(enc)
		for i, tag := range tags {
			if tag != contextTag || i+1 >= len(tags) {
				continue
			}
			for j := i + 1; j < len(tags); j++ {
				if tags[j] != targetTag {
					continue
				}
				seg := tags[i+1 : j+1]
				key := strings.Join(seg, "/")
				if !seen[key] {
					seen[key] = true
					cp := make([]string, len(seg))
					copy(cp, seg)
					out = append(out, cp)
				}
			}
		}
		return true
	})
	return out
}
