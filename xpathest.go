// Package xpathest estimates the result sizes of XPath expressions —
// with and without order-based axes — from compact summary structures,
// reproducing "An Estimation System for XPath Expressions" (Li, Lee,
// Hsu, Cong; ICDE 2006).
//
// The pipeline: parse or generate an XML document, label it with the
// path encoding scheme, collect PathId-Frequency and Path-Order
// statistics, compress them into p- and o-histograms at chosen
// variance thresholds, and estimate query selectivities through the
// path join and the order-axis formulas of the paper:
//
//	doc, _ := xpathest.ParseDocumentString(xml)
//	sum := doc.BuildSummary(xpathest.SummaryOptions{})
//	est, _ := sum.Estimate("//play[/act/folls::epilogue]")
//	exact, _ := doc.ExactCount("//play[/act/folls::epilogue]")
//
// Queries use the paper's XPath fragment: "/" (child), "//"
// (descendant), "[...]" branch predicates, and the order axes
// following-sibling (folls::), preceding-sibling (pres::), following
// (foll::) and preceding (pre::). An optional "!" after a tag marks
// the target node whose selectivity is estimated; by default it is the
// last step of the outermost path.
package xpathest

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xpathest/internal/core"
	"xpathest/internal/datagen"
	"xpathest/internal/eval"
	"xpathest/internal/exec"
	"xpathest/internal/guard"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/pidtree"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// Document is a parsed and labeled XML document, ready for summary
// construction and exact evaluation. All read methods are safe for
// concurrent use. The only mutation route is Summary.Apply, which
// edits the tree and its derived structures under the document's edit
// lock and advances the edit epoch; reads concurrent with an Apply see
// either the old or the new state of each structure, so callers that
// edit should serialize edits against reads they need to be coherent.
type Document struct {
	doc    *xmltree.Document
	lab    *pathenc.Labeling
	tables *stats.Tables

	// execMu guards the exact evaluator and the pid-accelerated
	// executor over it. Both are built on first use and dropped by
	// Summary.Apply; estimation reads neither.
	execMu sync.Mutex
	ev     *eval.Evaluator
	exec   *exec.Executor

	// editMu serializes Summary.Apply calls; editEpoch counts them.
	// A Summary remembers the epoch it was built at and refuses to
	// Apply once the document has moved on.
	editMu    sync.Mutex
	editEpoch uint64
}

// Epoch returns the document's edit epoch: 0 when loaded, advanced by
// every Summary.Apply. It orders a document's states for Apply, which
// refuses a summary built before the latest edit. Caches of estimates
// need no epoch: they key on Summary.ID, and every Apply returns a new
// summary with a new ID.
func (d *Document) Epoch() uint64 {
	d.editMu.Lock()
	defer d.editMu.Unlock()
	return d.editEpoch
}

// ParseDocument reads an XML document and prepares it: builds the path
// encoding, labels every element with its path id, and collects the
// PathId-Frequency and Path-Order statistics.
func ParseDocument(r io.Reader) (*Document, error) {
	return ParseDocumentContext(nil, r, Limits{})
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(s string) (*Document, error) {
	return ParseDocument(strings.NewReader(s))
}

// LoadDocument reads an XML file from disk.
func LoadDocument(path string) (*Document, error) {
	return LoadDocumentContext(nil, path, Limits{})
}

// prepare labels a built tree and collects its statistics in one
// replay.
func prepare(doc *xmltree.Document) (*Document, error) {
	tables, err := stats.Build(doc)
	if err != nil {
		return nil, err
	}
	return &Document{doc: doc, lab: tables.Labeling, tables: tables}, nil
}

// Dataset names a built-in synthetic dataset generator.
type Dataset string

// The three datasets of the paper's evaluation (Table 1), generated
// synthetically; see DESIGN.md for the substitution rationale.
const (
	SSPlays Dataset = "SSPlays"
	DBLP    Dataset = "DBLP"
	XMark   Dataset = "XMark"
)

// GenerateDataset builds one of the paper's evaluation datasets at the
// given scale (1.0 ≈ paper size) and prepares it like ParseDocument.
func GenerateDataset(name Dataset, seed int64, scale float64) (*Document, error) {
	for _, ds := range datagen.Datasets() {
		if ds.Name == string(name) {
			return prepare(ds.Gen(datagen.Config{Seed: seed, Scale: scale}))
		}
	}
	return nil, fmt.Errorf("xpathest: unknown dataset %q (have SSPlays, DBLP, XMark): %w", name, guard.ErrInvalidArgument)
}

// NumElements returns the number of element nodes.
func (d *Document) NumElements() int { return d.doc.NumElements() }

// NumDistinctTags returns the number of distinct element names.
func (d *Document) NumDistinctTags() int { return d.doc.NumDistinctTags() }

// TagCount returns the number of elements with the given tag; the
// wildcard "*" counts every element. It is the trivial upper bound on
// any estimate or exact count whose target is that tag — the bound the
// differential harness (internal/difftest) enforces on every estimate.
func (d *Document) TagCount(tag string) int {
	if tag == "*" {
		return d.doc.NumElements()
	}
	return d.doc.TagCount(tag)
}

// NumDistinctPaths returns the number of distinct root-to-leaf tag
// paths (the path-id width in bits).
func (d *Document) NumDistinctPaths() int { return d.lab.Table.NumPaths() }

// NumDistinctPathIDs returns the number of distinct path ids.
func (d *Document) NumDistinctPathIDs() int { return d.lab.NumDistinct() }

// SizeBytes returns the byte size of the document as parsed or
// generated.
func (d *Document) SizeBytes() int64 { return d.doc.Bytes }

// WriteXML serializes the document as XML to w (indented when indent
// is true); reparsing the output reproduces the document's structure.
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	return d.doc.WriteXML(w, indent)
}

// ExactCount evaluates the query exactly on the document tree and
// returns the true selectivity of its target node. The first exact
// call after a load or an edit indexes the tree for evaluation.
func (d *Document) ExactCount(query string) (int, error) {
	return d.ExactCountContext(nil, query)
}

// evaluator returns the document's exact evaluator, indexing the tree
// on the first call after a load or an edit. The caller holds execMu.
func (d *Document) evaluator() *eval.Evaluator {
	if d.ev == nil {
		d.ev = eval.New(d.doc)
	}
	return d.ev
}

// IndexedCount evaluates the query exactly like ExactCount, but first
// prunes the evaluator's candidate sets with the path join's surviving
// path ids — the structural-join acceleration the labeling scheme was
// designed for. Results always equal ExactCount; on wide documents
// with selective predicates it is several times faster.
func (d *Document) IndexedCount(query string) (int, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	d.execMu.Lock()
	if d.exec == nil {
		d.exec = exec.New(d.evaluator(), d.lab, d.tables)
	}
	ex := d.exec
	d.execMu.Unlock()
	return ex.Count(p)
}

// Match is one concrete query answer.
type Match struct {
	// Tag is the element name of the matched node.
	Tag string
	// Path is the root-to-node tag path, e.g. "site/people/person".
	Path string
	// Text is the node's direct character data, if any.
	Text string
}

// Matches evaluates the query exactly and returns the matched target
// nodes in document order.
func (d *Document) Matches(query string) ([]Match, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	d.execMu.Lock()
	ev := d.evaluator()
	d.execMu.Unlock()
	nodes, err := ev.Matches(p)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(nodes))
	for i, n := range nodes {
		out[i] = Match{Tag: n.Tag, Path: n.PathString(), Text: n.Text}
	}
	return out, nil
}

// ParseQuery validates a query string against the supported fragment
// and returns its canonical form.
func ParseQuery(query string) (string, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// SummaryOptions controls synopsis construction.
type SummaryOptions struct {
	// PVariance is the intra-bucket frequency variance threshold of
	// the p-histogram (Algorithm 1). 0 stores exact frequencies; the
	// paper recommends 0–2.
	PVariance float64

	// OVariance is the variance threshold of the o-histogram
	// (Algorithm 2). 0 stores exact order counts; the paper recommends
	// 0–4.
	OVariance float64

	// Exact estimates from the uncompressed tables instead of the
	// histograms (equivalent to both variances at 0) and reports the
	// tables' sizes. It saves no construction time: the histograms are
	// still built, at variance 0, because Save writes them; a saved
	// Exact summary loads back as those histograms.
	Exact bool
}

// thresholds returns the variance thresholds the summary's histograms
// are built at: 0 for an Exact summary.
func (o SummaryOptions) thresholds() (pVar, oVar float64) {
	if o.Exact {
		return 0, 0
	}
	return o.PVariance, o.OVariance
}

// Validate reports whether the options violate a documented
// precondition: variance thresholds must be non-negative. The
// error-returning Context APIs call it, so a bad threshold surfaces as
// an ErrInvalidArgument-wrapped error there instead of the histogram
// builders' programmer-error panic.
func (o SummaryOptions) Validate() error {
	if o.PVariance < 0 {
		return fmt.Errorf("xpathest: negative PVariance %v: %w", o.PVariance, guard.ErrInvalidArgument)
	}
	if o.OVariance < 0 {
		return fmt.Errorf("xpathest: negative OVariance %v: %w", o.OVariance, guard.ErrInvalidArgument)
	}
	return nil
}

// Summary is a built synopsis plus its estimator. It is immutable and
// safe for concurrent use: Apply does not change the summary, it
// returns a new one for the edited document. A Summary can be
// serialized with Save and loaded back — without the document — via
// ReadSummary.
type Summary struct {
	opts SummaryOptions
	est  *core.Estimator

	lab *pathenc.Labeling
	ps  *histogram.PSet
	os  *histogram.OSet

	pBytes, oBytes int

	// id is the process-unique identity newSummary assigns.
	id uint64

	// src is the document the summary was built over (nil when loaded
	// with ReadSummary or built by SummarizeStream) and epoch the
	// document's edit epoch at build time; Apply needs both.
	src   *Document
	epoch uint64
}

// summaryIDs numbers summaries as newSummary assembles them. A counter
// rather than the *Summary pointer keys EstimateCache, so the cache
// does not keep superseded summaries reachable.
var summaryIDs atomic.Uint64

// ID returns the summary's process-unique identity: nonzero, and
// distinct for every summary built, streamed, read or returned by
// Apply in this process. A Summary is immutable, so (ID, canonical
// query) is a complete key for a cached estimate (EstimateCache).
func (s *Summary) ID() uint64 { return s.id }

// Epoch returns the document edit epoch the summary was built at. A
// summary estimates the document state of exactly that epoch, and
// Apply accepts only a summary of the document's current epoch. It is
// not a cache key: summaries of different documents share epoch 0.
func (s *Summary) Epoch() uint64 { return s.epoch }

// BuildSummary constructs the p- and o-histograms at the requested
// variance thresholds and returns the estimator over them. A negative
// threshold is a programming error and panics; BuildSummaryContext
// returns it as an ErrInvalidArgument-wrapped error instead.
func (d *Document) BuildSummary(opts SummaryOptions) *Summary {
	s, _ := d.buildSummary(nil, opts)
	return s
}

// buildSummary is the body of BuildSummary and BuildSummaryContext; a
// nil ctx never cancels.
func (d *Document) buildSummary(ctx context.Context, opts SummaryOptions) (*Summary, error) {
	s, err := summarize(ctx, opts, d.lab, d.tables)
	if err != nil {
		return nil, err
	}
	s.src, s.epoch = d, d.Epoch()
	return s, nil
}

// summarize builds the histograms of a labeled document's tables and
// assembles its summary; BuildSummary and SummarizeStream share it.
func summarize(ctx context.Context, opts SummaryOptions, lab *pathenc.Labeling, tables *stats.Tables) (*Summary, error) {
	n := lab.NumDistinct()
	pv, ov := opts.thresholds()
	ps, err := histogram.BuildPSetContext(ctx, tables.Freq, n, pv)
	if err != nil {
		return nil, err
	}
	os, err := histogram.BuildOSetContext(ctx, tables.Order, ps, n, ov)
	if err != nil {
		return nil, err
	}
	return newSummary(opts, lab, tables, ps, os), nil
}

// newSummary is the one assembler of a Summary, whatever built its
// parts: an Exact summary estimates from the tables and reports their
// sizes, any other from the histograms. tables may be nil only when
// opts is not Exact.
func newSummary(opts SummaryOptions, lab *pathenc.Labeling, tables *stats.Tables, ps *histogram.PSet, os *histogram.OSet) *Summary {
	s := &Summary{opts: opts, lab: lab, ps: ps, os: os, id: summaryIDs.Add(1)}
	if opts.Exact {
		n := lab.NumDistinct()
		s.est = core.New(lab, core.TableSource{Tables: tables})
		s.pBytes = tables.Freq.SizeBytes(pidRefBytes(n))
		s.oBytes = tables.Order.SizeBytes(pidRefBytes(n))
	} else {
		s.est = core.New(lab, core.HistogramSource{P: ps, O: os})
		s.pBytes = ps.SizeBytes()
		s.oBytes = os.SizeBytes()
	}
	return s
}

// Estimate returns the estimated selectivity of the query's target
// node.
func (s *Summary) Estimate(query string) (float64, error) {
	return s.est.EstimateString(query)
}

// Explanation is a human-readable derivation of one estimate: which of
// the paper's formulas applied (Theorem 4.1, Equations (2)–(5), the
// Example 5.3 rewriting) and the intermediate quantities.
type Explanation struct {
	Query string
	Value float64
	Steps []string
}

// String renders the derivation, one step per line.
func (x Explanation) String() string {
	out := fmt.Sprintf("%s = %.4g\n", x.Query, x.Value)
	for _, s := range x.Steps {
		out += "  " + s + "\n"
	}
	return out
}

// Explain estimates the query while recording how the value was
// derived.
func (s *Summary) Explain(query string) (Explanation, error) {
	x, err := s.est.ExplainString(query)
	if err != nil {
		return Explanation{}, err
	}
	return Explanation{Query: x.Query, Value: x.Value, Steps: x.Steps}, nil
}

// SizeBreakdown itemizes the memory cost of the summary under the
// repository's documented cost model (see DESIGN.md).
type SizeBreakdown struct {
	EncodingTableBytes int
	PidBinaryTreeBytes int
	PHistogramBytes    int
	OHistogramBytes    int
}

// Total sums all components.
func (b SizeBreakdown) Total() int {
	return b.EncodingTableBytes + b.PidBinaryTreeBytes + b.PHistogramBytes + b.OHistogramBytes
}

// Sizes returns the summary's memory breakdown. Each call builds the
// compressed path-id binary tree of §6 over the distinct path ids to
// measure it; estimation never reads the tree, so no summary keeps one.
func (s *Summary) Sizes() SizeBreakdown {
	return SizeBreakdown{
		EncodingTableBytes: s.lab.Table.SizeBytes(),
		PidBinaryTreeBytes: pidtree.MustBuild(s.lab.Distinct()).SizeBytes(),
		PHistogramBytes:    s.pBytes,
		OHistogramBytes:    s.oBytes,
	}
}

// Save serializes the summary — encoding table, path-id dictionary
// and both histograms — as a versioned, checksummed binary stream that
// ReadSummary loads back without the document. An Exact summary is
// written as its equivalent variance-0 histograms.
func (s *Summary) Save(w io.Writer) error {
	return summaryEncode(w, s.lab, s.ps, s.os)
}

// SummarizeFile builds a summary directly from an XML file in one
// streaming pass, without materializing the document tree — the route
// for inputs too large to hold in memory. Peak memory is
// O(max fanout × depth) plus the statistics tables. The returned
// Summary carries no document: it estimates (Estimate, Explain,
// EstimateQuery, EstimateBatch), reports Sizes and saves, but cannot
// Apply edits; ExactCount needs ParseDocument/LoadDocument.
func SummarizeFile(path string, opts SummaryOptions) (*Summary, error) {
	return SummarizeFileContext(nil, path, opts, Limits{})
}

// SummarizeStream is SummarizeFile over any reader, which it reads
// once; a read error comes back wrapped, errors.Is still finding it.
// A negative variance threshold fails with ErrInvalidArgument.
func SummarizeStream(r io.Reader, opts SummaryOptions) (*Summary, error) {
	return SummarizeStreamContext(nil, r, opts, Limits{})
}

// ReadSummary loads a summary serialized by Save. The returned
// Summary estimates exactly like the original (Estimate, Explain,
// EstimateQuery, EstimateBatch), reports the same Sizes and saves the
// same bytes; it carries no document, so it cannot Apply edits.
func ReadSummary(r io.Reader) (*Summary, error) {
	return ReadSummaryContext(nil, r, Limits{})
}
