package xpathest

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

const bookXML = `<library>
  <book>
    <title>First</title>
    <chapter><title>one</title><para/></chapter>
    <chapter><title>two</title><para/><para/></chapter>
    <appendix><para/></appendix>
  </book>
  <book>
    <title>Second</title>
    <chapter><title>only</title><para/></chapter>
  </book>
</library>`

func mustDoc(t testing.TB, xml string) *Document {
	t.Helper()
	d, err := ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseDocumentStats(t *testing.T) {
	d := mustDoc(t, bookXML)
	if d.NumElements() != 17 {
		t.Fatalf("NumElements = %d, want 17", d.NumElements())
	}
	if d.NumDistinctTags() != 6 {
		t.Fatalf("NumDistinctTags = %d", d.NumDistinctTags())
	}
	if d.NumDistinctPaths() == 0 || d.NumDistinctPathIDs() == 0 {
		t.Fatal("path statistics missing")
	}
	if d.SizeBytes() != int64(len(bookXML)) {
		t.Fatalf("SizeBytes = %d", d.SizeBytes())
	}
}

func TestParseDocumentError(t *testing.T) {
	if _, err := ParseDocumentString("<a><b></a>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if _, err := LoadDocument("/does/not/exist.xml"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExactCountAndMatches(t *testing.T) {
	d := mustDoc(t, bookXML)
	n, err := d.ExactCount("//book/chapter")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("//book/chapter = %d, want 3", n)
	}
	ms, err := d.Matches("//chapter/title")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Text != "one" || ms[0].Path != "library/book/chapter/title" {
		t.Fatalf("first match = %+v", ms[0])
	}
	if _, err := d.ExactCount("((("); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestOrderAxisEndToEnd(t *testing.T) {
	d := mustDoc(t, bookXML)
	// Chapters followed by a sibling appendix: only book 1's chapters.
	n, err := d.ExactCount("//book[/chapter!/folls::appendix]")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("exact = %d, want 2", n)
	}
	sum := d.BuildSummary(SummaryOptions{})
	est, err := sum.Estimate("//book[/chapter!/folls::appendix]")
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimate = %v", est)
	}
}

func TestSummaryEstimateExactOnSimple(t *testing.T) {
	d := mustDoc(t, bookXML)
	for _, opts := range []SummaryOptions{{}, {Exact: true}, {PVariance: 2, OVariance: 2}} {
		sum := d.BuildSummary(opts)
		got, err := sum.Estimate("//chapter/para")
		if err != nil {
			t.Fatal(err)
		}
		want := 4.0
		if opts.PVariance == 0 && math.Abs(got-want) > 1e-9 {
			t.Fatalf("opts %+v: estimate = %v, want %v", opts, got, want)
		}
		if got <= 0 {
			t.Fatalf("opts %+v: estimate = %v", opts, got)
		}
	}
}

// TestSummarySizes pins every part of the size breakdown on each route
// that yields a summary — built, streamed, and loaded back from its
// Save bytes — and checks that an edited summary reports the sizes of
// a summary built from scratch over the edited document.
func TestSummarySizes(t *testing.T) {
	xmark, err := GenerateDataset(XMark, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  *Document
		opts SummaryOptions
		want SizeBreakdown
	}{
		{"book", mustDoc(t, bookXML), SummaryOptions{}, SizeBreakdown{103, 39, 113, 208}},
		{"XMark", xmark, SummaryOptions{PVariance: 2, OVariance: 4}, SizeBreakdown{14807, 6283, 4797, 11228}},
	}
	for _, c := range cases {
		built := c.doc.BuildSummary(c.opts)
		var xml bytes.Buffer
		if err := c.doc.WriteXML(&xml, false); err != nil {
			t.Fatal(err)
		}
		streamed, err := SummarizeStream(bytes.NewReader(xml.Bytes()), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadSummary(bytes.NewReader(saveBytes(t, built)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			route string
			sum   *Summary
		}{{"BuildSummary", built}, {"SummarizeStream", streamed}, {"ReadSummary", read}} {
			if got := r.sum.Sizes(); got != c.want {
				t.Errorf("%s %s: Sizes() = %+v, want %+v", c.name, r.route, got, c.want)
			}
		}
	}
	if got, want := cases[0].want.Total(), 103+39+113+208; got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}

	d := mustDoc(t, bookXML)
	sum := d.BuildSummary(SummaryOptions{})
	coarse := d.BuildSummary(SummaryOptions{PVariance: 14, OVariance: 14}).Sizes()
	if coarse.PHistogramBytes > sum.Sizes().PHistogramBytes {
		t.Fatal("coarser histogram is larger")
	}
	// A <para/> in a chapter repeats a path; an <index/> in a book adds
	// one, so the script takes both routes of Apply.
	res, err := sum.Apply(EditScript{Ops: []EditOp{
		{Insert: true, Loc: []int{0, 1}, Index: 2, XML: "<para/>"},
		{Insert: true, Loc: []int{1}, XML: "<index/>"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FastOps != 1 || res.RebuildOps != 1 {
		t.Fatalf("ops routed %d fast / %d rebuild, want 1/1", res.FastOps, res.RebuildOps)
	}
	_, fresh := rebuiltSummary(t, d, SummaryOptions{})
	if got, want := res.Summary.Sizes(), fresh.Sizes(); got != want {
		t.Fatalf("edited Sizes() = %+v, fresh build %+v", got, want)
	}
}

func TestGenerateDataset(t *testing.T) {
	d, err := GenerateDataset(SSPlays, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Very small scales can drop rare optional structures; near-full
	// tag coverage is enough here (datagen's own tests pin 21 exactly
	// at a representative scale).
	if d.NumDistinctTags() < 18 {
		t.Fatalf("SSPlays tags = %d, want ≥ 18", d.NumDistinctTags())
	}
	if _, err := GenerateDataset("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestParseQueryCanonical(t *testing.T) {
	got, err := ParseQuery("/descendant::Play/child::Act")
	if err != nil {
		t.Fatal(err)
	}
	if got != "//Play/Act" {
		t.Fatalf("canonical = %q", got)
	}
	if _, err := ParseQuery("//["); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestBuildXSketch(t *testing.T) {
	d := mustDoc(t, bookXML)
	x := d.BuildXSketch(4096)
	got, err := x.Estimate("//book/chapter")
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("xsketch estimate = %v", got)
	}
	if x.SizeBytes() <= 0 {
		t.Fatal("xsketch size = 0")
	}
	if _, err := x.Estimate("//book[/chapter/folls::appendix]"); err == nil {
		t.Fatal("xsketch accepted an order query")
	}
}

func TestGenerateWorkload(t *testing.T) {
	d, err := GenerateDataset(SSPlays, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	qs := d.GenerateWorkload(WorkloadOptions{Seed: 3, NumSimple: 200, NumBranch: 200})
	if len(qs) == 0 {
		t.Fatal("empty workload")
	}
	sum := d.BuildSummary(SummaryOptions{Exact: true})
	orderSeen := false
	for _, q := range qs {
		if q.Exact <= 0 {
			t.Fatalf("%s: non-positive exact count", q.Query)
		}
		if q.HasOrderAxis {
			orderSeen = true
		}
		if _, err := sum.Estimate(q.Query); err != nil {
			t.Fatalf("estimate %s: %v", q.Query, err)
		}
		back, err := d.ExactCount(q.Query)
		if err != nil || back != q.Exact {
			t.Fatalf("%s: exact %d vs %d (%v)", q.Query, q.Exact, back, err)
		}
	}
	if !orderSeen {
		t.Log("workload produced no order queries at this scale (acceptable)")
	}
}

// TestEndToEndAccuracy is the integration smoke test: exact summaries
// must estimate a small generated dataset's workload with low error.
func TestEndToEndAccuracy(t *testing.T) {
	d, err := GenerateDataset(SSPlays, 7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	qs := d.GenerateWorkload(WorkloadOptions{Seed: 8, NumSimple: 300, NumBranch: 300})
	sum := d.BuildSummary(SummaryOptions{})
	var totalErr float64
	n := 0
	for _, q := range qs {
		est, err := sum.Estimate(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Query, err)
		}
		totalErr += math.Abs(est-float64(q.Exact)) / float64(q.Exact)
		n++
	}
	if n == 0 {
		t.Fatal("no queries")
	}
	if avg := totalErr / float64(n); avg > 0.15 {
		t.Fatalf("average relative error %v over %d queries, want < 0.15", avg, n)
	}
}

func TestDocConstantsMatchGenerators(t *testing.T) {
	for _, name := range []Dataset{SSPlays, DBLP, XMark} {
		if strings.TrimSpace(string(name)) == "" {
			t.Fatal("empty dataset name")
		}
	}
}

func TestSummarySaveLoad(t *testing.T) {
	d, err := GenerateDataset(SSPlays, 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SummaryOptions{{}, {Exact: true}, {PVariance: 2, OVariance: 4}} {
		sum := d.BuildSummary(opts)
		var buf bytes.Buffer
		if err := sum.Save(&buf); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		loaded, err := ReadSummary(&buf)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for _, q := range []string{
			"//PLAY/ACT/SCENE",
			"//SCENE[/TITLE]/SPEECH",
			"//ACT[/TITLE/folls::SCENE!]",
			"//SPEECH[/SPEAKER/folls::LINE]",
		} {
			want, err := sum.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Estimate(q)
			if err != nil {
				t.Fatalf("loaded %s: %v", q, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%+v %s: loaded %v, original %v", opts, q, got, want)
			}
		}
		// Sizes must be available without the document.
		if loaded.Sizes().Total() <= 0 {
			t.Fatal("loaded summary has no sizes")
		}
	}
}

func TestReadSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSummary(bytes.NewReader([]byte("not a summary"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSummary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestSummaryConcurrentUse exercises the documented concurrency
// safety, including the first exact calls racing to build the
// document's evaluator and executor.
func TestSummaryConcurrentUse(t *testing.T) {
	d := mustDoc(t, bookXML)
	sum := d.BuildSummary(SummaryOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := sum.Estimate("//book[/chapter/folls::appendix]"); err != nil {
					errs <- err
					return
				}
				if _, err := d.ExactCount("//book/chapter"); err != nil {
					errs <- err
					return
				}
				if _, err := d.Matches("//chapter/para"); err != nil {
					errs <- err
					return
				}
				if _, err := d.IndexedCount("//book/chapter"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSummarizeFileMatchesInMemory holds the streaming route to the
// tree route bit for bit: on every dataset and option set, a summary
// built from serialized XML without the tree saves the same bytes,
// reports the same Sizes and returns the same estimate bits as one
// built from the parsed document.
func TestSummarizeFileMatchesInMemory(t *testing.T) {
	for _, ds := range []Dataset{SSPlays, DBLP, XMark} {
		d, err := GenerateDataset(ds, 13, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.CreateTemp(t.TempDir(), "*.xml")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteXML(f, false); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var queries []string
		for _, q := range d.GenerateWorkload(WorkloadOptions{Seed: 13, NumSimple: 40, NumBranch: 40}) {
			queries = append(queries, q.Query)
		}
		for _, opts := range []SummaryOptions{{}, {PVariance: 1, OVariance: 2}, {Exact: true}} {
			inMem := d.BuildSummary(opts)
			streamed, err := SummarizeFile(f.Name(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if err := inMem.Save(&want); err != nil {
				t.Fatal(err)
			}
			if err := streamed.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %+v: streamed summary saves different bytes", ds, opts)
			}
			if g, w := streamed.Sizes(), inMem.Sizes(); g != w {
				t.Errorf("%s %+v: streamed Sizes %+v, in-memory %+v", ds, opts, g, w)
			}
			for _, q := range queries {
				w, werr := inMem.Estimate(q)
				g, gerr := streamed.Estimate(q)
				if (gerr != nil) != (werr != nil) || math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s %+v %s: streamed %v (%v), in-memory %v (%v)", ds, opts, q, g, gerr, w, werr)
				}
			}
		}
	}
	if _, err := SummarizeFile("/does/not/exist.xml", SummaryOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSummarizeStreamReadsOnce summarizes a stream that can be read
// only once — a pipe a goroutine writes the XML into — and holds it to
// the summary of the parsed document, byte for byte.
func TestSummarizeStreamReadsOnce(t *testing.T) {
	d, err := GenerateDataset(XMark, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var xml bytes.Buffer
	if err := d.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDocument(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pr.Close() // unblocks the writer if the stream is abandoned
	go func() {
		_, err := pw.Write(xml.Bytes())
		pw.CloseWithError(err)
	}()
	opts := SummaryOptions{PVariance: 2, OVariance: 4}
	streamed, err := SummarizeStream(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, streamed), saveBytes(t, parsed.BuildSummary(opts))) {
		t.Fatal("summary of a single-use stream saves other bytes than the parsed document's")
	}
}

func TestIndexedCountMatchesExact(t *testing.T) {
	d, err := GenerateDataset(DBLP, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"//article/author",
		"//phdthesis[/month]/author",
		"//inproceedings[/crossref]/title",
		"//dblp/www",
		"//article[/volume/folls::number!]",
	} {
		want, err := d.ExactCount(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.IndexedCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: indexed %d, exact %d", q, got, want)
		}
	}
	if _, err := d.IndexedCount("((("); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestExplainPublic(t *testing.T) {
	d := mustDoc(t, bookXML)
	sum := d.BuildSummary(SummaryOptions{})
	x, err := sum.Explain("//book[/chapter!/folls::appendix]")
	if err != nil {
		t.Fatal(err)
	}
	if x.Value <= 0 || len(x.Steps) == 0 {
		t.Fatalf("explanation = %+v", x)
	}
	if !strings.Contains(x.String(), "Equation (3)") {
		t.Fatalf("explanation text:\n%s", x.String())
	}
	if _, err := sum.Explain("((("); err == nil {
		t.Fatal("bad query accepted")
	}
}
