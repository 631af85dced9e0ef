package xpathest

import (
	"bytes"
	"context"
	"io"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
)

// assertInterned fails unless every pid the tables (when present) and
// the histograms hold is an instance of lab.Distinct(). Tables and
// histograms key pids by pointer, so an equal but distinct instance
// would read as absent.
func assertInterned(t *testing.T, route string, lab *pathenc.Labeling, tables *stats.Tables, ps *histogram.PSet, os *histogram.OSet) {
	t.Helper()
	interned := make(map[*bitset.Bitset]bool, lab.NumDistinct())
	for _, p := range lab.Distinct() {
		interned[p] = true
	}
	bad := 0
	check := func(what string, p *bitset.Bitset) {
		if !interned[p] && bad < 5 {
			bad++
			t.Errorf("%s: %s holds pid %s that is not an instance of Distinct()", route, what, p)
		}
	}
	if tables != nil {
		if tables.Labeling != lab {
			t.Errorf("%s: tables carry another labeling", route)
		}
		for _, tag := range tables.Freq.Tags() {
			for _, e := range tables.Freq.Entries(tag) {
				check("frequency entry of "+tag, e.Pid)
			}
		}
		for _, tag := range tables.Order.Tags() {
			for _, c := range tables.Order.Table(tag).Cells() {
				check("order cell of "+tag, c.Pid)
			}
		}
	}
	for _, h := range ps.Histograms() {
		for _, b := range h.Buckets {
			for _, p := range b.Pids {
				check("p-histogram of "+h.Tag, p)
			}
		}
	}
	for _, h := range os.Histograms() {
		for _, p := range h.Cols {
			check("o-histogram of "+h.Tag, p)
		}
	}
}

// TestPidsAreInterned checks, on every route that makes a summary, that
// its tables and histograms hold only the labeling's interned pids.
func TestPidsAreInterned(t *testing.T) {
	d, err := GenerateDataset(XMark, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var xml bytes.Buffer
	if err := d.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	opener := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(xml.Bytes())), nil }
	for _, opts := range []SummaryOptions{{Exact: true}, {PVariance: 2, OVariance: 4}} {
		built := d.BuildSummary(opts)
		assertInterned(t, "BuildSummary", built.lab, d.tables, built.ps, built.os)

		streamed, err := SummarizeStream(opener, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertInterned(t, "SummarizeStream", streamed.lab, nil, streamed.ps, streamed.os)
		// The streamed route's tables, which SummarizeStream does not
		// keep, summarized as it summarizes them.
		tables, err := stats.CollectStream(opener)
		if err != nil {
			t.Fatal(err)
		}
		fromStream, err := summarize(nil, opts, tables.Labeling, nil, tables)
		if err != nil {
			t.Fatal(err)
		}
		assertInterned(t, "CollectStream", tables.Labeling, tables, fromStream.ps, fromStream.os)

		saved := saveBytes(t, built)
		read, err := ReadSummary(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		assertInterned(t, "ReadSummary", read.lab, nil, read.ps, read.os)
		file, err := ReadSummaryFileContext(context.Background(), saved, DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		assertInterned(t, "ReadSummaryFileContext", file.lab, nil, file.ps, file.os)
	}

	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := doc.BuildSummary(SummaryOptions{}).Apply(EditScript{Ops: []EditOp{
		{Insert: true, Loc: []int{1}, Index: 1, XML: "<d></d>"},
		{Insert: true, Loc: []int{2}, Index: 0, XML: "<e></e>"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FastOps != 1 || res.RebuildOps != 1 {
		t.Fatalf("Apply took %d fast and %d rebuild ops, want 1 and 1", res.FastOps, res.RebuildOps)
	}
	s := res.Summary
	assertInterned(t, "Apply", s.lab, doc.tables, s.ps, s.os)
}
