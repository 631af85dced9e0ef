// Package xmltree provides the in-memory ordered tree model of an XML
// document that the estimation system and its ground-truth evaluator
// operate on.
//
// XML is modeled as an ordered tree of element nodes (the paper's
// Section 1): character data, attributes, comments and processing
// instructions carry no structural selectivity information for the
// query class studied, so only their byte volume is retained (it feeds
// the dataset-size column of Table 1). Sibling order — the whole point
// of the paper — is preserved exactly.
//
// Scan reads serialized XML with a byte-level tokenizer that follows
// the rules of encoding/xml's strict decoder, over one read buffer that
// grows only for a token longer than itself, so a document of any size
// streams through it. Element names are interned: every node of a tag
// shares one string.
package xmltree

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"strings"

	"xpathest/internal/guard"
)

// Node is a single element node in the document tree.
type Node struct {
	// Tag is the element name. Namespace prefixes are dropped; the
	// paper's datasets and query language are namespace-free.
	Tag string

	// Parent is nil for the root element.
	Parent *Node

	// Children holds the element children in document order.
	Children []*Node

	// Pos is the 0-based index of this node among its parent's element
	// children (its sibling position). The root has Pos 0.
	Pos int

	// Ord is the 0-based document order (preorder rank) of the node.
	Ord int

	// Text is the concatenated character data directly under this
	// element, trimmed. Kept for realistic byte accounting and for
	// applications built on the tree; the estimator never reads it.
	Text string
}

// IsLeaf reports whether the node has no element children. Leaves are
// what the path encoding scheme assigns single-bit path ids to.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// PathTags returns the tags on the path from the document root down to
// n, inclusive. For the first D in Figure 1(a) this is
// ["Root", "A", "B", "D"].
func (n *Node) PathTags() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Tag)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathString returns the slash-joined root-to-node tag path, e.g.
// "Root/A/B/D" — the format of the paper's encoding table.
func (n *Node) PathString() string {
	return strings.Join(n.PathTags(), "/")
}

// Document is a parsed XML document.
type Document struct {
	// Root is the document element.
	Root *Node

	// Bytes is the byte size of the serialized document as parsed (or
	// as estimated by the builder); the "Size" column of Table 1.
	Bytes int64

	nodes int
	tags  map[string]int
}

// NumElements returns the total number of element nodes — the
// "#(Eles)" column of Table 1.
func (d *Document) NumElements() int { return d.nodes }

// NumDistinctTags returns the number of distinct element names — the
// "#(Distinct Eles)" column of Table 1.
func (d *Document) NumDistinctTags() int { return len(d.tags) }

// TagCount returns the number of elements with the given tag.
func (d *Document) TagCount(tag string) int { return d.tags[tag] }

// Tags returns the set of distinct tags with their frequencies. The
// returned map must not be modified.
func (d *Document) Tags() map[string]int { return d.tags }

// Walk visits every element of the document in document order. If fn
// returns false the walk stops.
func (d *Document) Walk(fn func(*Node) bool) {
	if d.Root != nil {
		d.Root.Walk(fn)
	}
}

// Walk visits every element of n's subtree, n first, in document
// order. If fn returns false the walk stops.
func (n *Node) Walk(fn func(*Node) bool) {
	stack := []*Node{n}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(n) {
			return
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
}

// finalize computes document order, sibling positions and statistics.
// The builder and parser both funnel through it.
func (d *Document) finalize() {
	d.nodes = 0
	d.tags = make(map[string]int)
	if d.Root == nil {
		return
	}
	ord := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		n.Ord = ord
		ord++
		d.nodes++
		d.tags[n.Tag]++
		for i, c := range n.Children {
			c.Pos = i
			c.Parent = n
			rec(c)
		}
	}
	d.Root.Pos = 0
	d.Root.Parent = nil
	rec(d.Root)
}

// Parse reads an XML document from r and builds its tree. It returns
// an error for malformed XML or for input containing no element.
func Parse(r io.Reader) (*Document, error) {
	return ParseContext(nil, r, guard.Limits{}, nil)
}

// ParseContext is Parse under a context and resource limits: Scan
// checks nesting depth, element count and bytes read as it tokenizes
// r, so a hostile document (e.g. a deep-nesting bomb) fails fast with
// an error wrapping guard.ErrLimitExceeded instead of exhausting the
// process; cancellation is honored every ctxCheckEvery tokens with an
// error wrapping guard.ErrCanceled, and an error from r comes back
// wrapped, not as a malformed document. A non-nil h
// receives every event after the tree builder, so a consumer of the
// document (the summary build labels and collects it) reads it in the
// same pass; an error from h.Close stops the parse.
func ParseContext(ctx context.Context, r io.Reader, lim guard.Limits, h Handler) (*Document, error) {
	t := tree{next: h}
	n, err := Scan(ctx, r, lim, &t)
	if err != nil {
		return nil, err
	}
	doc := &Document{Root: t.root, Bytes: n}
	doc.finalize()
	return doc, nil
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// tree is the Handler ParseContext builds the element tree with, and
// the tree a Builder fills. It checks neither a second root nor
// unbalanced events: Scan rejects both, Builder panics on them. next,
// if not nil, receives every event after the tree.
type tree struct {
	root  *Node
	stack []*Node
	next  Handler
}

func (t *tree) Open(tag string) {
	n := &Node{Tag: tag}
	if len(t.stack) == 0 {
		t.root = n
	} else {
		p := t.stack[len(t.stack)-1]
		p.Children = append(p.Children, n)
	}
	t.stack = append(t.stack, n)
	if t.next != nil {
		t.next.Open(tag)
	}
}

// Text adds trimmed character data to the open element.
func (t *tree) Text(data []byte) {
	if s := bytes.TrimSpace(data); len(s) > 0 {
		t.stack[len(t.stack)-1].addText(string(s))
	}
	if t.next != nil {
		t.next.Text(data)
	}
}

// addText appends a run of character data to n's text, one space
// between runs.
func (n *Node) addText(s string) {
	if n.Text == "" {
		n.Text = s
	} else {
		n.Text += " " + s
	}
}

func (t *tree) Close() error {
	t.stack = t.stack[:len(t.stack)-1]
	if t.next != nil {
		return t.next.Close()
	}
	return nil
}

// WriteXML serializes the document as XML to w. Text content is
// escaped; indentation is two spaces per depth when indent is true.
// The generators use it to materialize synthetic datasets, and
// Parse(WriteXML(d)) reproduces d's structure.
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	bw := &errWriter{w: w}
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if indent {
			bw.pad(depth)
		}
		bw.str("<")
		bw.str(n.Tag)
		bw.str(">")
		if n.Text != "" {
			var sb strings.Builder
			xml.EscapeText(&sb, []byte(n.Text))
			bw.str(sb.String())
		}
		if len(n.Children) > 0 {
			if indent {
				bw.str("\n")
			}
			for _, c := range n.Children {
				rec(c, depth+1)
			}
			if indent {
				bw.pad(depth)
			}
		}
		bw.str("</")
		bw.str(n.Tag)
		bw.str(">")
		if indent {
			bw.str("\n")
		}
	}
	if d.Root != nil {
		rec(d.Root, 0)
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errWriter) pad(depth int) {
	for i := 0; i < depth; i++ {
		e.str("  ")
	}
}
