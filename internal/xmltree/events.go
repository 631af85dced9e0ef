package xmltree

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"

	"xpathest/internal/guard"
)

// Handler consumes a document's elements as events in document order:
// Open as an element starts, Text for character data directly inside
// it, Close as it ends. Scan produces the events from serialized XML
// and Node.Replay from a built tree, so one consumer serves both
// sources: the tree builder of ParseContext, and the label-and-collect
// handler of the summary build, which ParseContext can feed in the
// same pass.
type Handler interface {
	Open(tag string)
	// Text receives raw character data; data is valid only during
	// the call.
	Text(data []byte)
	// Close ends the innermost open element. An error stops the
	// driver and is returned from it unchanged.
	Close() error
}

// ctxCheckEvery is how many decoder tokens Scan consumes between
// context-cancellation checks — frequent enough that a canceled scan of
// a huge document stops promptly, rare enough that the check never
// shows up in profiles.
const ctxCheckEvery = 1024

// Scan reads one XML document from r and reports its elements to h. It
// enforces lim as tokens arrive — nesting depth and element count at
// each start tag, consumed bytes at every token — with errors wrapping
// guard.ErrLimitExceeded, and checks ctx every ctxCheckEvery tokens
// (guard.ErrCanceled). Malformed XML, a second root element, unbalanced
// tags and input without any element fail with
// guard.ErrMalformedDocument; h sees balanced events under one root up
// to the failure. The strict encoding/xml decoder enforces balance: it
// reports an end tag without its start, and input that ends inside an
// element, as a syntax error. It returns the number of bytes read from
// r.
func Scan(ctx context.Context, r io.Reader, lim guard.Limits, h Handler) (int64, error) {
	cr := &countingReader{r: r}
	dec := xml.NewDecoder(cr)
	var (
		root     string
		depth    int
		elements int
		tokens   int
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return cr.n, wrapTokenErr(err)
		}
		tokens++
		if tokens%ctxCheckEvery == 0 {
			if err := guard.CheckContext(ctx); err != nil {
				return cr.n, fmt.Errorf("xmltree: parse: %w", err)
			}
		}
		if err := lim.CheckDocumentBytes(cr.n); err != nil {
			return cr.n, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if elements > 0 {
					return cr.n, fmt.Errorf("xmltree: multiple root elements (%q and %q): %w", root, t.Name.Local, guard.ErrMalformedDocument)
				}
				root = t.Name.Local
			}
			depth++
			elements++
			if err := lim.CheckDepth(depth); err != nil {
				return cr.n, fmt.Errorf("xmltree: parse: %w", err)
			}
			if err := lim.CheckElements(elements); err != nil {
				return cr.n, fmt.Errorf("xmltree: parse: %w", err)
			}
			h.Open(t.Name.Local)
		case xml.EndElement:
			depth--
			if err := h.Close(); err != nil {
				return cr.n, err
			}
		case xml.CharData:
			if depth > 0 {
				h.Text(t)
			}
		}
	}
	if elements == 0 {
		return cr.n, fmt.Errorf("xmltree: document has no element: %w", guard.ErrMalformedDocument)
	}
	return cr.n, nil
}

// Replay reports n's subtree to h as Open and Close events in document
// order — the tree-side twin of Scan. Text is not replayed; no tree
// consumer reads it. An error from h.Close stops the replay and is
// returned unchanged.
func (n *Node) Replay(h Handler) error {
	h.Open(n.Tag)
	for _, c := range n.Children {
		if err := c.Replay(h); err != nil {
			return err
		}
	}
	return h.Close()
}

// wrapTokenErr classifies a decoder token error: XML syntax errors are
// the document's fault and wrap guard.ErrMalformedDocument; anything
// else (a reader timeout, a canceled body) keeps its own identity so
// the serving layer can map it to the right status.
func wrapTokenErr(err error) error {
	var syn *xml.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("xmltree: parse: %v: %w", err, guard.ErrMalformedDocument)
	}
	return fmt.Errorf("xmltree: parse: %w", err)
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
