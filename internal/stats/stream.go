package stats

import (
	"context"
	"fmt"
	"io"

	"xpathest/internal/guard"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// CollectStream computes the exact statistics tables in two streaming
// passes over serialized XML, without ever materializing the document
// tree — the way a production system would summarize a document too
// large to hold in memory (the paper's DBLP input is 65 MB). Both
// passes run the XML driver (xmltree.Scan) into the consumers the tree
// route replays a built document into:
//
//   - pass one feeds a pathenc.PathCollector, which fixes the encoding
//     table and with it the path-id width;
//   - pass two feeds a pathenc.Labeler and adds each element to both
//     tables as it closes, through the same AddFreq and ApplyGroup
//     CollectFreq and CollectOrder call.
//
// Peak memory is O(max fanout × depth) plus the tables themselves —
// per-sibling (tag, pid) pairs must be buffered until the parent
// closes, because a parent's order cells need its children's final
// path ids. Frequency entries are added in post-order, so a tag that
// nests inside itself may list them in another order than CollectFreq;
// the histograms and the estimator order entries canonically.
//
// The opener is invoked once per pass and must return equivalent
// streams (e.g. re-open the same file). The returned Tables carry an
// estimation-only labeling (no per-node labels).
func CollectStream(opener func() (io.ReadCloser, error)) (*Tables, error) {
	return CollectStreamContext(nil, opener, guard.Limits{})
}

// CollectStreamContext is CollectStream under a context and resource
// limits, which xmltree.Scan enforces in both passes: cancellation at
// token-loop boundaries (errors wrap guard.ErrCanceled), and the depth,
// element-count and byte limits as tokens arrive (errors wrap
// guard.ErrLimitExceeded), so a hostile stream fails fast instead of
// exhausting the collector. An opener error is returned unchanged; a
// second pass that meets a leaf path the first did not fails with
// guard.ErrInvalidArgument.
func CollectStreamContext(ctx context.Context, opener func() (io.ReadCloser, error), lim guard.Limits) (*Tables, error) {
	var paths pathenc.PathCollector
	if err := scanPass(ctx, opener, lim, 1, &paths); err != nil {
		return nil, err
	}
	table, err := paths.Table()
	if err != nil {
		return nil, err
	}
	lab := pathenc.EstimationLabeling(table, nil)
	c := &streamCollector{
		lb: pathenc.NewLabeler(lab),
		t:  &Tables{Labeling: lab, Freq: newFreqTable(), Order: &OrderTables{byTag: make(map[string]*OrderTable)}},
	}
	if err := scanPass(ctx, opener, lim, 2, c); err != nil {
		return nil, err
	}
	return c.t, nil
}

// scanPass runs one streaming pass: it opens a stream and scans it
// into h.
func scanPass(ctx context.Context, opener func() (io.ReadCloser, error), lim guard.Limits, pass int, h xmltree.Handler) error {
	r, err := opener()
	if err != nil {
		return err
	}
	_, err = xmltree.Scan(ctx, r, lim, h)
	closeErr := r.Close()
	if err != nil {
		return fmt.Errorf("stats: stream pass %d: %w", pass, err)
	}
	return closeErr
}

// streamCollector is pass two's xmltree.Handler: it labels each
// element as it closes and adds it to both tables, buffering the
// closed children of every open element until that element's sibling
// group is complete.
type streamCollector struct {
	lb   *pathenc.Labeler
	t    *Tables
	open []openElement
}

// openElement is one element of pass two that has not closed yet.
type openElement struct {
	tag  string
	kids []GroupMember // closed children, in document order
}

func (c *streamCollector) Open(tag string) {
	c.lb.Open(tag)
	c.open = append(c.open, openElement{tag: tag})
}

func (c *streamCollector) Text([]byte) {}

func (c *streamCollector) Close() error {
	pid, err := c.lb.Close()
	if err != nil {
		return fmt.Errorf("%v (streams differ between passes?): %w", err, guard.ErrInvalidArgument)
	}
	n := len(c.open) - 1
	e := &c.open[n]
	c.t.Freq.AddFreq(e.tag, pid, 1)
	c.t.Order.ApplyGroup(e.kids, 1)
	c.open = c.open[:n]
	if n > 0 {
		c.open[n-1].kids = append(c.open[n-1].kids, GroupMember{Tag: e.tag, Pid: pid})
	}
	return nil
}
