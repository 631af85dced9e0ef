package stats

import (
	"context"
	"io"

	"xpathest/internal/guard"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// Collector is the label-and-collect xmltree.Handler of every build:
// it labels each element as it closes, through a pathenc.Labeler whose
// encoding table grows as leaf paths first close, and adds the element
// to both tables through the same AddFreq and ApplyGroup CollectFreq
// and CollectOrder call. It buffers the closed children of every open
// element until that element's sibling group is complete, because a
// parent's order cells need its children's final path ids: one stack
// holds them, each open element's run above its parent's. Frequency
// entries are therefore added as elements close, so a tag that nests
// inside itself may list them in another order than CollectFreq; the
// histograms and the estimator order entries canonically.
//
// One read of the input feeds it: xmltree.Scan for a stream,
// xmltree.ParseContext alongside the tree builder for a document, and
// Node.Replay for a tree already built (Build).
type Collector struct {
	lb   *pathenc.Labeler
	t    *Tables
	open []openElement
	kids []GroupMember // closed children of the open elements, in document order
}

// openElement is one element that has not closed yet.
type openElement struct {
	tag   string
	start int // where its closed children begin in kids
}

// NewCollector returns a Collector for the events of one document
// from its root. keep keeps every element's path id, as a document
// kept as a tree needs (pathenc.NewLabeler).
func NewCollector(keep bool) *Collector {
	return &Collector{
		lb: pathenc.NewLabeler(keep),
		t:  &Tables{Freq: newFreqTable(), Order: &OrderTables{byTag: make(map[string]*OrderTable)}},
	}
}

func (c *Collector) Open(tag string) {
	c.lb.Open(tag)
	c.open = append(c.open, openElement{tag: tag, start: len(c.kids)})
}

func (c *Collector) Text([]byte) {}

func (c *Collector) Close() error {
	pid, err := c.lb.Close()
	if err != nil {
		return err
	}
	e := c.open[len(c.open)-1]
	c.open = c.open[:len(c.open)-1]
	c.t.Freq.AddFreq(e.tag, pid, 1)
	c.t.Order.ApplyGroup(c.kids[e.start:], 1)
	// The element joins its parent's run (the root's entry is never read).
	c.kids = append(c.kids[:e.start], GroupMember{Tag: e.tag, Pid: pid})
	return nil
}

// Tables seals the labeling (pathenc.Labeler.Labeling) and returns it
// with both tables. It is called once, after the root closes.
func (c *Collector) Tables() *Tables {
	c.t.Labeling = c.lb.Labeling()
	return c.t
}

// Build labels a built document and collects both tables in one
// replay of its tree.
func Build(doc *xmltree.Document) (*Tables, error) {
	c := NewCollector(true)
	if doc.Root != nil {
		if err := doc.Root.Replay(c); err != nil {
			return nil, err
		}
	}
	return c.Tables(), nil
}

// CollectStream computes the exact statistics tables in one streaming
// pass over serialized XML, without ever materializing the document
// tree — the way a production system would summarize a document too
// large to hold in memory (the paper's DBLP input is 65 MB). Peak
// memory is O(max fanout × depth) plus the tables themselves. The
// returned Tables carry an estimation-only labeling (no per-node
// labels).
func CollectStream(r io.Reader) (*Tables, error) {
	return CollectStreamContext(nil, r, guard.Limits{})
}

// CollectStreamContext is CollectStream under a context and resource
// limits, which xmltree.Scan enforces: cancellation at token-loop
// boundaries (errors wrap guard.ErrCanceled), and the depth,
// element-count and byte limits as tokens arrive (errors wrap
// guard.ErrLimitExceeded), so a hostile stream fails fast instead of
// exhausting the collector. A read error is returned wrapped, with its
// identity kept for errors.Is.
func CollectStreamContext(ctx context.Context, r io.Reader, lim guard.Limits) (*Tables, error) {
	c := NewCollector(false)
	if _, err := xmltree.Scan(ctx, r, lim, c); err != nil {
		return nil, err
	}
	return c.Tables(), nil
}
