package xmltree_test

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"xpathest/internal/guard"
	"xpathest/internal/xmltree"
)

// referenceScan is Scan as it was written over encoding/xml's strict
// decoder. xmltree.Scan is checked against it: the same verdict, the
// same events and the same byte count on every input.
func referenceScan(ctx context.Context, r io.Reader, lim guard.Limits, h xmltree.Handler) (int64, error) {
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
		if tokens%1024 == 0 {
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

// wrapTokenErr classifies a decoder token error: XML syntax errors are
// the document's fault; anything else keeps its own identity.
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

// recorder logs the events of a scan.
type recorder struct{ events []string }

func (r *recorder) Open(tag string)  { r.events = append(r.events, "<"+tag) }
func (r *recorder) Text(data []byte) { r.events = append(r.events, "="+string(data)) }
func (r *recorder) Close() error     { r.events = append(r.events, ">"); return nil }

type scanFunc func(context.Context, io.Reader, guard.Limits, xmltree.Handler) (int64, error)

type outcome struct {
	n      int64
	err    error
	events []string
}

func run(scan scanFunc, r io.Reader) outcome {
	var rec recorder
	n, err := scan(context.Background(), r, guard.Limits{}, &rec)
	return outcome{n, err, rec.events}
}

// verdict classes an error: nil, a malformed document, a limit, or
// anything else (a read error).
func verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, guard.ErrMalformedDocument):
		return "malformed"
	case errors.Is(err, guard.ErrLimitExceeded):
		return "limit"
	}
	return "other"
}

// refVerdict is the verdict the scanner must reach where the reference
// reached want: the same, except for the reference's two errors outside
// the taxonomy, an XML declaration of another version or encoding,
// which the scanner reports as a malformed document.
func refVerdict(want outcome) string {
	if msg := fmt.Sprint(want.err); strings.Contains(msg, "xml: unsupported version") ||
		strings.Contains(msg, "declared but Decoder.CharsetReader is nil") {
		return "malformed"
	}
	return verdict(want.err)
}

// diverge reports how got, a scan of in, differs from want, the
// reference's scan of in through a whole reader, or "" if it does not.
// The byte counts must be equal on success, and on failure too if got
// read in whole and in fits in the 4096 bytes the reference reads
// ahead: then both read all of in.
func diverge(in []byte, want, got outcome, whole bool) string {
	switch {
	case refVerdict(want) != verdict(got.err):
		return fmt.Sprintf("verdict %v, reference %v", got.err, want.err)
	case !slices.Equal(got.events, want.events):
		return fmt.Sprintf("events %q, reference %q", got.events, want.events)
	case got.n != want.n && (want.err == nil || whole && len(in) <= 4096):
		return fmt.Sprintf("read %d bytes, reference %d", got.n, want.n)
	}
	return ""
}
