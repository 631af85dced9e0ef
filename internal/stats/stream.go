package stats

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/pathenc"
)

// CollectStream computes the exact statistics tables in two streaming
// passes over serialized XML, without ever materializing the document
// tree — the way a production system would summarize a document too
// large to hold in memory (the paper's DBLP input is 65 MB):
//
//   - pass one discovers the distinct root-to-leaf paths (fixing the
//     path-id width and the encoding table);
//   - pass two assigns path ids bottom-up on a stack of open elements,
//     accumulating the PathId-Frequency table and the Path-Order
//     tables as elements close.
//
// Peak memory is O(max fanout × depth) plus the tables themselves —
// per-sibling (tag, pid) pairs must be buffered until the parent
// closes, because a parent's order cells need its children's final
// path ids.
//
// The opener is invoked once per pass and must return equivalent
// streams (e.g. re-open the same file). The returned Tables carry an
// estimation-only labeling (no per-node labels).
func CollectStream(opener func() (io.ReadCloser, error)) (*Tables, error) {
	return CollectStreamContext(nil, opener, guard.Limits{})
}

// wrapTokenErr classifies a decoder token error: XML syntax errors are
// the document's fault and wrap guard.ErrMalformedDocument; anything
// else (a reader timeout, a canceled body) keeps its own identity so
// the serving layer can map it to the right status.
func wrapTokenErr(op string, err error) error {
	var syn *xml.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("%s: %v: %w", op, err, guard.ErrMalformedDocument)
	}
	return fmt.Errorf("%s: %w", op, err)
}

// ctxCheckEvery is how many decoder tokens the streaming passes
// consume between context-cancellation checks.
const ctxCheckEvery = 1024

// CollectStreamContext is CollectStream under a context and resource
// limits. Both streaming passes honor cancellation at token-loop
// boundaries (errors wrap guard.ErrCanceled) and enforce the depth,
// element-count and byte limits as tokens arrive (errors wrap
// guard.ErrLimitExceeded), so a hostile stream fails fast instead of
// exhausting the collector.
func CollectStreamContext(ctx context.Context, opener func() (io.ReadCloser, error), lim guard.Limits) (*Tables, error) {
	// Pass one: the encoding table.
	r1, err := opener()
	if err != nil {
		return nil, err
	}
	paths, err := streamPaths(ctx, r1, lim)
	closeErr := r1.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	table, err := pathenc.NewTable(paths)
	if err != nil {
		return nil, err
	}

	// Pass two: path ids and both tables.
	r2, err := opener()
	if err != nil {
		return nil, err
	}
	tables, err := streamTables(ctx, r2, table, lim)
	closeErr = r2.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return tables, nil
}

// streamGuard tracks the per-pass limit state shared by both streaming
// passes: token cadence for context checks, element count and consumed
// bytes.
type streamGuard struct {
	ctx      context.Context
	lim      guard.Limits
	cr       *countingReader
	pass     int
	tokens   int
	elements int
}

// token accounts one decoder token; open accounts one element start at
// the given depth.
func (g *streamGuard) token() error {
	g.tokens++
	if g.tokens%ctxCheckEvery == 0 {
		if err := guard.CheckContext(g.ctx); err != nil {
			return fmt.Errorf("stats: stream pass %d: %w", g.pass, err)
		}
	}
	if err := g.lim.CheckDocumentBytes(g.cr.n); err != nil {
		return fmt.Errorf("stats: stream pass %d: %w", g.pass, err)
	}
	return nil
}

func (g *streamGuard) open(depth int) error {
	g.elements++
	if err := g.lim.CheckDepth(depth); err != nil {
		return fmt.Errorf("stats: stream pass %d: %w", g.pass, err)
	}
	if err := g.lim.CheckElements(g.elements); err != nil {
		return fmt.Errorf("stats: stream pass %d: %w", g.pass, err)
	}
	return nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// streamPaths collects distinct root-to-leaf tag paths in first-
// occurrence document order (matching pathenc.Build).
func streamPaths(ctx context.Context, r io.Reader, lim guard.Limits) ([]string, error) {
	cr := &countingReader{r: r}
	g := &streamGuard{ctx: ctx, lim: lim, cr: cr, pass: 1}
	dec := xml.NewDecoder(cr)
	var (
		stack      []string
		hasChild   []bool
		paths      []string
		seen       = map[string]bool{}
		rootClosed bool
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, wrapTokenErr("stats: stream pass 1", err)
		}
		if err := g.token(); err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 && rootClosed {
				return nil, fmt.Errorf("stats: multiple root elements: %w", guard.ErrMalformedDocument)
			}
			if len(stack) > 0 {
				hasChild[len(hasChild)-1] = true
			}
			stack = append(stack, t.Name.Local)
			hasChild = append(hasChild, false)
			if err := g.open(len(stack)); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("stats: unbalanced end element %q: %w", t.Name.Local, guard.ErrMalformedDocument)
			}
			if !hasChild[len(hasChild)-1] {
				p := strings.Join(stack, "/")
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
			}
			stack = stack[:len(stack)-1]
			hasChild = hasChild[:len(hasChild)-1]
			if len(stack) == 0 {
				rootClosed = true
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("stats: unclosed element %q: %w", stack[len(stack)-1], guard.ErrMalformedDocument)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("stats: document has no element: %w", guard.ErrMalformedDocument)
	}
	return paths, nil
}

// childEntry is a closed child buffered in its parent's frame.
type childEntry struct {
	tag string
	pid *bitset.Bitset
}

// frame is one open element during pass two.
type frame struct {
	tag      string
	pid      *bitset.Bitset // or-accumulator; nil until a child closes
	children []childEntry
}

func streamTables(ctx context.Context, r io.Reader, table *pathenc.Table, lim guard.Limits) (*Tables, error) {
	cr := &countingReader{r: r}
	r = cr
	g := &streamGuard{ctx: ctx, lim: lim, cr: cr, pass: 2}
	lab := pathenc.EstimationLabeling(table, nil)
	freq := &FreqTable{byTag: make(map[string][]PidFreq)}
	freqIdx := make(map[string]map[string]int)
	order := &OrderTables{byTag: make(map[string]*OrderTable)}
	width := table.NumPaths()

	addFreq := func(tag string, pid *bitset.Bitset) {
		m, ok := freqIdx[tag]
		if !ok {
			m = make(map[string]int)
			freqIdx[tag] = m
		}
		key := pid.Key()
		if i, ok := m[key]; ok {
			freq.byTag[tag][i].Freq++
			return
		}
		m[key] = len(freq.byTag[tag])
		freq.byTag[tag] = append(freq.byTag[tag], PidFreq{Pid: pid, Freq: 1})
	}

	// addOrder replays the CollectOrder sweep over one closed sibling
	// list.
	addOrder := func(kids []childEntry) {
		if len(kids) < 2 {
			return
		}
		remaining := map[string]int{}
		for _, c := range kids {
			remaining[c.tag]++
		}
		seen := map[string]int{}
		for _, c := range kids {
			remaining[c.tag]--
			tbl := order.byTag[c.tag]
			if tbl == nil {
				tbl = newOrderTable(c.tag)
				order.byTag[c.tag] = tbl
			}
			for tag, cnt := range remaining {
				if cnt > 0 {
					tbl.add(Before, c.pid, tag)
				}
			}
			for tag, cnt := range seen {
				if cnt > 0 {
					tbl.add(After, c.pid, tag)
				}
			}
			seen[c.tag]++
		}
	}

	dec := xml.NewDecoder(r)
	var stack []*frame
	rootClosed := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, wrapTokenErr("stats: stream pass 2", err)
		}
		if err := g.token(); err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 && rootClosed {
				return nil, fmt.Errorf("stats: multiple root elements: %w", guard.ErrMalformedDocument)
			}
			stack = append(stack, &frame{tag: t.Name.Local})
			if err := g.open(len(stack)); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("stats: unbalanced end element %q: %w", t.Name.Local, guard.ErrMalformedDocument)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]

			var pid *bitset.Bitset
			if f.pid == nil {
				// Leaf: its root-to-leaf path must be in the table.
				var sb strings.Builder
				for _, fr := range stack {
					sb.WriteString(fr.tag)
					sb.WriteByte('/')
				}
				sb.WriteString(f.tag)
				enc := table.Encoding(sb.String())
				if enc == 0 {
					return nil, fmt.Errorf("stats: pass 2 saw unknown path %q (streams differ between passes?): %w", sb.String(), guard.ErrInvalidArgument)
				}
				pid = bitset.New(width)
				pid.Set(enc)
			} else {
				pid = f.pid
			}
			pid = lab.Intern(pid)
			addFreq(f.tag, pid)
			addOrder(f.children)
			f.children = nil

			if len(stack) == 0 {
				rootClosed = true
				continue
			}
			p := stack[len(stack)-1]
			if p.pid == nil {
				p.pid = pid.Clone()
			} else {
				p.pid.Or(pid)
			}
			p.children = append(p.children, childEntry{tag: f.tag, pid: pid})
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("stats: unclosed element %q: %w", stack[len(stack)-1].tag, guard.ErrMalformedDocument)
	}
	if !rootClosed {
		return nil, fmt.Errorf("stats: document has no element: %w", guard.ErrMalformedDocument)
	}
	return &Tables{Labeling: lab, Freq: freq, Order: order}, nil
}
