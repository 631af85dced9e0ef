package xmltree

import (
	"context"
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
	// Text receives character data directly inside the open element,
	// decoded: entities and character references replaced, CR and
	// CRLF read as LF, a CDATA section's content as one run of its
	// own. data is valid only during the call.
	Text(data []byte)
	// Close ends the innermost open element. An error stops the
	// driver and is returned from it unchanged.
	Close() error
}

// ctxCheckEvery is how many tokens Scan consumes between
// context-cancellation checks — frequent enough that a canceled scan of
// a huge document stops promptly, rare enough that the check never
// shows up in profiles.
const ctxCheckEvery = 1024

// Scan reads one XML document from r and reports its elements to h. It
// tokenizes r by the rules of encoding/xml's strict decoder (see
// scanner), with one difference: an XML declaration of a version other
// than 1.0 or an encoding other than UTF-8 is a malformed document, not
// an error outside the taxonomy. It enforces lim as tokens arrive —
// nesting depth and element count at each start tag, bytes read at
// every token — with errors wrapping guard.ErrLimitExceeded, and checks
// ctx every ctxCheckEvery tokens (guard.ErrCanceled). Malformed XML, a
// second root element, unbalanced tags and input without any element
// fail with guard.ErrMalformedDocument; h sees balanced events under
// one root up to the failure. An error from r is returned wrapped, not
// as a malformed document, so errors.Is and errors.As still find it. It
// returns the number of bytes read from r.
func Scan(ctx context.Context, r io.Reader, lim guard.Limits, h Handler) (int64, error) {
	s := &scanner{r: r, buf: make([]byte, bufSize), names: make(map[string]qname)}
	var root string
	elements := 0
	for tokens := 1; ; tokens++ {
		kind, err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return s.n, err
		}
		if tokens%ctxCheckEvery == 0 {
			if err := guard.CheckContext(ctx); err != nil {
				return s.n, fmt.Errorf("xmltree: parse: %w", err)
			}
		}
		if err := lim.CheckDocumentBytes(s.n); err != nil {
			return s.n, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch kind {
		case tokOpen:
			depth := len(s.open)
			if depth == 1 {
				if elements > 0 {
					return s.n, fmt.Errorf("xmltree: multiple root elements (%q and %q): %w", root, s.tag, guard.ErrMalformedDocument)
				}
				root = s.tag
			}
			elements++
			if err := lim.CheckDepth(depth); err != nil {
				return s.n, fmt.Errorf("xmltree: parse: %w", err)
			}
			if err := lim.CheckElements(elements); err != nil {
				return s.n, fmt.Errorf("xmltree: parse: %w", err)
			}
			h.Open(s.tag)
		case tokClose:
			if err := h.Close(); err != nil {
				return s.n, err
			}
		case tokText:
			if len(s.open) > 0 {
				h.Text(s.data)
			}
		}
	}
	if elements == 0 {
		return s.n, fmt.Errorf("xmltree: document has no element: %w", guard.ErrMalformedDocument)
	}
	return s.n, nil
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
