package xpathest

import (
	"context"
	"io"
	"os"

	"xpathest/internal/guard"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/summaryio"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// Limits bounds the resources one untrusted input may consume; see the
// field docs in internal/guard. The zero value means "unlimited" for
// every dimension, matching the behavior of the non-Context API.
type Limits = guard.Limits

// DefaultLimits returns the limits the serving layer starts from:
// generous enough for every dataset of the paper at full scale, small
// enough that a hostile input cannot exhaust the process.
func DefaultLimits() Limits { return guard.DefaultLimits() }

// The error taxonomy of the hardened API. Every error produced by the
// input-facing paths wraps exactly one of these sentinels, so callers
// dispatch with errors.Is instead of string matching.
var (
	// ErrLimitExceeded: the input was structurally valid but larger
	// than the configured Limits allow.
	ErrLimitExceeded = guard.ErrLimitExceeded
	// ErrCorruptSummary: a serialized summary stream failed structural
	// validation (bad magic, truncation, checksum mismatch, ...).
	ErrCorruptSummary = guard.ErrCorruptSummary
	// ErrMalformedQuery: a query string is outside the supported XPath
	// fragment.
	ErrMalformedQuery = guard.ErrMalformedQuery
	// ErrMalformedDocument: an XML input failed to parse or violated the
	// structural rules the tree builder relies on.
	ErrMalformedDocument = guard.ErrMalformedDocument
	// ErrInvalidArgument: a caller violated a documented precondition —
	// a programming error on the caller's side, not hostile input.
	ErrInvalidArgument = guard.ErrInvalidArgument
	// ErrCanceled: the context was canceled or its deadline expired
	// before the operation completed.
	ErrCanceled = guard.ErrCanceled
	// ErrInternal: a recovered panic — a bug, never the input's fault.
	ErrInternal = guard.ErrInternal
)

// ParseDocumentContext is ParseDocument under resource limits and
// cancellation: parsing stops with an ErrLimitExceeded-wrapped error as
// soon as the document exceeds lim, and with ErrCanceled once ctx is
// done. Limit checks run while streaming, before the offending input
// is materialized. The one scan that builds the tree labels and
// collects it too.
func ParseDocumentContext(ctx context.Context, r io.Reader, lim Limits) (*Document, error) {
	c := stats.NewCollector(true)
	doc, err := xmltree.ParseContext(ctx, r, lim, c)
	if err != nil {
		return nil, err
	}
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	tables := c.Tables()
	return &Document{doc: doc, lab: tables.Labeling, tables: tables}, nil
}

// LoadDocumentContext is LoadDocument under resource limits and
// cancellation.
func LoadDocumentContext(ctx context.Context, path string, lim Limits) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseDocumentContext(ctx, f, lim)
}

// BuildSummaryContext is BuildSummary honoring cancellation at
// histogram-construction loop boundaries.
func (d *Document) BuildSummaryContext(ctx context.Context, opts SummaryOptions) (*Summary, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return d.buildSummary(ctx, opts)
}

// ExactCountContext is ExactCount honoring cancellation at the
// evaluator's candidate-loop boundaries — the route a serving process
// uses so a client hang-up stops an expensive exact evaluation.
func (d *Document) ExactCountContext(ctx context.Context, query string) (int, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	if err := guard.CheckContext(ctx); err != nil {
		return 0, err
	}
	d.execMu.Lock()
	ev := d.evaluator()
	d.execMu.Unlock()
	return ev.SelectivityContext(ctx, p)
}

// EstimateContext is Estimate with a cancellation check and panic
// isolation: a panic anywhere in estimation comes back as an
// ErrInternal-wrapped error instead of unwinding the caller. Estimation
// itself is fast (no per-candidate loops), so the context is checked on
// entry rather than mid-flight.
func (s *Summary) EstimateContext(ctx context.Context, query string) (float64, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return 0, err
	}
	var v float64
	err := guard.Safe("estimate", func() error {
		var err error
		v, err = s.est.EstimateString(query)
		return err
	})
	return v, err
}

// SummarizeFileContext is SummarizeFile under resource limits and
// cancellation.
func SummarizeFileContext(ctx context.Context, path string, opts SummaryOptions, lim Limits) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return SummarizeStreamContext(ctx, f, opts, lim)
}

// SummarizeStreamContext is SummarizeStream under resource limits and
// cancellation: the streaming pass enforces lim and polls ctx, and the
// histogram builds honor cancellation too.
func SummarizeStreamContext(ctx context.Context, r io.Reader, opts SummaryOptions, lim Limits) (*Summary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tables, err := stats.CollectStreamContext(ctx, r, lim)
	if err != nil {
		return nil, err
	}
	return summarize(ctx, opts, tables.Labeling, tables)
}

// ReadSummaryContext is ReadSummary under resource limits and
// cancellation: the decoder refuses to consume more than
// lim.MaxSummaryBytes (checked before each allocation, so a hostile
// length field cannot force a huge allocation first).
func ReadSummaryContext(ctx context.Context, r io.Reader, lim Limits) (*Summary, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	lab, ps, os, err := summaryDecodeLimited(r, lim.MaxSummaryBytes)
	if err != nil {
		return nil, err
	}
	return summaryFromDecoded(ctx, lab, ps, os)
}

// ReadSummaryFileContext loads a summary from a complete at-rest file
// image: a Save stream, optionally sealed with the storage trailer the
// durable store appends (summaryio.Seal). Unlike the stream-oriented
// ReadSummaryContext, verification here is whole-file — a truncated
// trailer, a flipped checksum bit, or trailing garbage after the
// stream all fail with ErrCorruptSummary before any estimate can be
// served from the bytes.
func ReadSummaryFileContext(ctx context.Context, data []byte, lim Limits) (*Summary, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	if summaryio.HasTrailer(data) {
		payload, err := summaryio.Unseal(data)
		if err != nil {
			return nil, err
		}
		data = payload
	}
	lab, ps, os, err := summaryDecodeBytes(data, lim.MaxSummaryBytes)
	if err != nil {
		return nil, err
	}
	return summaryFromDecoded(ctx, lab, ps, os)
}

// summaryFromDecoded assembles an estimation-ready Summary from the
// decoded components, shared by the streaming and whole-file readers.
func summaryFromDecoded(ctx context.Context, lab *pathenc.Labeling, ps *histogram.PSet, os *histogram.OSet) (*Summary, error) {
	if err := guard.CheckContext(ctx); err != nil {
		return nil, err
	}
	return newSummary(SummaryOptions{PVariance: ps.Threshold, OVariance: os.Threshold}, lab, nil, ps, os), nil
}
