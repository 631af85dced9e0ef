package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"xpathest"
	"xpathest/internal/datagen"
	"xpathest/internal/pathenc"
	"xpathest/internal/workload"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// Sizes of the generated inputs. They are fixed, not tuned per run:
// a later change is compared against its parent on the same inputs.
const (
	docSeed      = 1 // datagen seed of the fixed corpus
	accuracySeed = 7 // workload.Random seed of the fixed accuracy sample
	writeSeed    = 3 // seed of the fixed write cycle's edit scripts

	hotPairs       = 256   // read-hot working set of (summary, query) pairs
	coldAttempts   = 90000 // workload.Random attempts per dataset for read-cold
	batchSlots     = 32    // slots per POST /estimate/batch
	batchRepeats   = 8     // slots of each batch that repeat another slot
	writeScripts   = 4     // /delta scripts per dataset in one write cycle
	opsPerScript   = 2     // edit ops per script
	freshEvery     = 8     // every 8th edit op inserts never-seen tags
	readerQueries  = 48    // write-mix reader queries per dataset
	accuracyPerDoc = 150   // positive queries per document in the accuracy sample
)

// docScales are the datagen scales of the three documents, chosen by
// measurement (README.md, "Inputs"). SSPlays and XMark are at 0.125,
// the scale of the repository's experiments: there XMark's estimates
// take most of read-cold's processor time (read-cold answered ~54k
// queries/s with XMark at 0.03 and ~26k/s at 0.125 on the same host),
// so an estimator change moves the end-to-end figures. DBLP is flat
// and eight times larger per unit of scale; at 0.015 it has about as
// many elements as the other two (SSPlays 22k, DBLP 29k, XMark 30k;
// 0.95, 0.77 and 0.75 MB of XML), which keeps a set-up round at a few
// seconds and a write cycle near a second.
var docScales = map[string]float64{
	string(xpathest.SSPlays): 0.125,
	string(xpathest.DBLP):    0.015,
	string(xpathest.XMark):   0.125,
}

// opts are the options POST /summarize builds with.
var opts = xpathest.SummaryOptions{}

// Query classes of the paper's evaluation (Figs 10–13).
const (
	classSimple = "simple"
	classBranch = "branch"
	classOrder  = "order"
)

// query is one accepted query and its class.
type query struct {
	text  string
	class string
}

// dataset is one generated document and everything derived from it.
type dataset struct {
	name string
	xml  []byte
	tree *xmltree.Document // xml parsed, for the edit generator
	lab  *pathenc.Labeling // tree's labeling, for workload.Random
	doc  *xpathest.Document
	sum  *xpathest.Summary // BuildSummary(opts): the read oracle
	save []byte            // sum.Save bytes, what the store holds
}

// inputs is everything a run derives from its seed. Only the parts the
// workload needs are filled.
type inputs struct {
	seed int64
	ds   []*dataset

	hot       []pair    // read-hot pairs, with expected values filled
	cold      [][]query // read-cold population per dataset
	coldIndex []pair    // flat index over cold, for uniform draws

	writes   []*writePlan // one per dataset
	accuracy []accQuery
}

// pair addresses one (summary, query) combination.
type pair struct {
	ds   int
	q    query
	want uint64 // Float64bits of the oracle estimate, when precomputed
}

// accQuery is one query of the accuracy sample.
type accQuery struct {
	pair
	exact int
}

// accepted reports whether the estimator accepts p, using structural
// checks only: the query tree must build, carry no wildcard, have at
// most one order edge, and a preceding/following edge must not be
// anchored at the document root. These are the estimator's rejection
// paths (core.Estimator.Estimate and its path join).
func accepted(p *xpath.Path) bool {
	if hasWildcard(p) {
		return false
	}
	t, err := xpath.BuildTree(p)
	if err != nil || len(t.Edges) > 1 {
		return false
	}
	if len(t.Edges) == 1 && !t.Edges[0].SiblingOnly && t.Edges[0].Parent.IsVRoot() {
		return false
	}
	return true
}

func hasWildcard(p *xpath.Path) bool {
	for _, s := range p.Steps {
		if s.Tag == "*" {
			return true
		}
		for _, pr := range s.Preds {
			if hasWildcard(pr) {
				return true
			}
		}
	}
	return false
}

func classOf(p *xpath.Path) string {
	switch {
	case p.HasOrderAxis():
		return classOrder
	case p.HasBranch():
		return classBranch
	default:
		return classSimple
	}
}

// randomQueries returns the accepted, distinct queries among n
// workload.Random attempts over lab.
func randomQueries(lab *pathenc.Labeling, seed int64, n int) []query {
	var out []query
	for _, p := range workload.Random(lab, workload.RandomConfig{Seed: seed, Num: n}) {
		if q, ok := acceptedQuery(p.String()); ok {
			out = append(out, q)
		}
	}
	return out
}

// acceptedQuery parses text as the server will and applies accepted.
func acceptedQuery(text string) (query, bool) {
	p, err := xpath.Parse(text)
	if err != nil || !accepted(p) {
		return query{}, false
	}
	return query{text: text, class: classOf(p)}, true
}

// genDatasets builds the three datasets: document, summary and its
// Save bytes. The documents are the benchmark's fixed corpus, the same
// for every seed: the seed draws queries, batches and edit scripts.
// Document-dependent costs (a summarize, a rebuild) and the accuracy
// then do not change with the seed, only with the program.
func genDatasets() ([]*dataset, error) {
	const seed = docSeed
	gens := datagen.Datasets()
	out := make([]*dataset, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g datagen.Dataset) {
			defer wg.Done()
			out[i], errs[i] = genDataset(g, seed)
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func genDataset(g datagen.Dataset, seed int64) (*dataset, error) {
	var xml bytes.Buffer
	if err := g.Gen(datagen.Config{Seed: seed, Scale: docScales[g.Name]}).WriteXML(&xml, false); err != nil {
		return nil, fmt.Errorf("%s: serializing: %w", g.Name, err)
	}
	doc, err := xpathest.ParseDocument(bytes.NewReader(xml.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("%s: parsing: %w", g.Name, err)
	}
	sum := doc.BuildSummary(opts)
	var save bytes.Buffer
	if err := sum.Save(&save); err != nil {
		return nil, fmt.Errorf("%s: encoding: %w", g.Name, err)
	}
	tree, err := xmltree.Parse(bytes.NewReader(xml.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("%s: parsing: %w", g.Name, err)
	}
	lab, err := pathenc.Build(tree)
	if err != nil {
		return nil, fmt.Errorf("%s: labeling: %w", g.Name, err)
	}
	return &dataset{name: g.Name, xml: xml.Bytes(), tree: tree, lab: lab, doc: doc, sum: sum, save: save.Bytes()}, nil
}

// expect returns the oracle estimate of q on sum as bits.
func expect(sum *xpathest.Summary, text string) (uint64, error) {
	q, err := xpathest.CompileQuery(text)
	if err != nil {
		return 0, err
	}
	v, err := sum.EstimateQuery(q)
	if err != nil {
		return 0, fmt.Errorf("oracle estimate %q: %w", text, err)
	}
	return f64bits(v), nil
}

// genInputs derives the inputs the workload needs from the seed.
func genInputs(w string, seed int64) (*inputs, error) {
	ds, err := genDatasets()
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, ds: ds}
	switch w {
	case "read-hot":
		err = in.genHot()
	case "read-cold":
		err = in.genCold()
	}
	if err != nil {
		return nil, err
	}
	// Every workload writes: write-mix in its timed phase, the read
	// workloads in their write probe. The plans are independent, so
	// they are made concurrently.
	in.writes = make([]*writePlan, len(ds))
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *dataset) {
			defer wg.Done()
			in.writes[i], errs[i] = newWritePlan(d, writeSeed+int64(i), seed*7919+int64(i), w == "write-mix")
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := in.genAccuracy(); err != nil {
		return nil, err
	}
	return in, nil
}

// genHot draws the read-hot working set: an equal share of the 256
// pairs from each document's accepted queries, split equally among the
// query classes, so every seed's set has the same mix.
func (in *inputs) genHot() error {
	rng := rand.New(rand.NewSource(in.seed))
	for i := range in.ds {
		qs := randomQueries(in.ds[i].lab, in.seed*131+int64(i), 400)
		n := hotPairs / len(in.ds)
		if i < hotPairs%len(in.ds) {
			n++
		}
		rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
		pick, err := stratified(qs, n)
		if err != nil {
			return fmt.Errorf("read-hot on %s: %w", in.ds[i].name, err)
		}
		for _, q := range pick {
			want, err := expect(in.ds[i].sum, q.text)
			if err != nil {
				return err
			}
			in.hot = append(in.hot, pair{ds: i, q: q, want: want})
		}
	}
	return nil
}

// stratified takes n queries from qs, in order, with the three query
// classes in equal shares (the first n%3 classes get one more).
func stratified(qs []query, n int) ([]query, error) {
	classes := []string{classSimple, classBranch, classOrder}
	want := map[string]int{}
	for i, c := range classes {
		want[c] = n / len(classes)
		if i < n%len(classes) {
			want[c]++
		}
	}
	var out []query
	for _, q := range qs {
		if want[q.class] > 0 {
			want[q.class]--
			out = append(out, q)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d queries in equal class shares among %d accepted", len(out), n, len(qs))
	}
	return out, nil
}

// genCold builds the read-cold population. Its oracle values are not
// computed here — that would estimate every query once during set-up —
// but for the queries a run actually draws, after its timed phase.
func (in *inputs) genCold() error {
	in.cold = make([][]query, len(in.ds))
	var wg sync.WaitGroup
	for i := range in.ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in.cold[i] = randomQueries(in.ds[i].lab, in.seed*137+int64(i), coldAttempts)
		}(i)
	}
	wg.Wait()
	for i, qs := range in.cold {
		for _, q := range qs {
			in.coldIndex = append(in.coldIndex, pair{ds: i, q: q})
		}
	}
	return nil
}

// genAccuracy builds the §7 accuracy sample: positive queries on
// SSPlays and XMark with their exact counts. Like the documents it is
// fixed, so rel_error changes only when estimates do. DBLP is left out because
// exact evaluation there costs tens of milliseconds per query.
func (in *inputs) genAccuracy() error {
	for i, d := range in.ds {
		if d.name == string(xpathest.DBLP) {
			continue
		}
		n := 0
		for _, q := range randomQueries(d.lab, accuracySeed+int64(i), 1200) {
			if n == accuracyPerDoc {
				break
			}
			exact, err := d.doc.ExactCount(q.text)
			if err != nil {
				return fmt.Errorf("%s: exact count %q: %w", d.name, q.text, err)
			}
			if exact == 0 {
				continue
			}
			want, err := expect(d.sum, q.text)
			if err != nil {
				return err
			}
			in.accuracy = append(in.accuracy, accQuery{pair: pair{ds: i, q: q, want: want}, exact: exact})
			n++
		}
		if n < accuracyPerDoc {
			return fmt.Errorf("%s: accuracy sample has only %d positive queries", d.name, n)
		}
	}
	return nil
}
