package stats

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xpathest/internal/datagen"
	"xpathest/internal/guard"
	"xpathest/internal/paperfig"
	"xpathest/internal/xmltree"
)

// openerFor returns an opener over an in-memory XML serialization.
func openerFor(t testing.TB, doc *xmltree.Document) func() (io.ReadCloser, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
}

// assertTablesEqual compares streamed tables against tree-collected
// ones cell by cell.
func assertTablesEqual(t *testing.T, want, got *Tables) {
	t.Helper()
	// Encoding tables.
	if got.Labeling.Table.NumPaths() != want.Labeling.Table.NumPaths() {
		t.Fatalf("paths: %d vs %d", got.Labeling.Table.NumPaths(), want.Labeling.Table.NumPaths())
	}
	for i := 1; i <= want.Labeling.Table.NumPaths(); i++ {
		if got.Labeling.Table.Path(i) != want.Labeling.Table.Path(i) {
			t.Fatalf("path %d: %q vs %q", i, got.Labeling.Table.Path(i), want.Labeling.Table.Path(i))
		}
	}
	if got.Labeling.NumDistinct() != want.Labeling.NumDistinct() {
		t.Fatalf("distinct pids: %d vs %d", got.Labeling.NumDistinct(), want.Labeling.NumDistinct())
	}

	// Frequency tables.
	wt, gt := want.Freq.Tags(), got.Freq.Tags()
	if strings.Join(wt, ",") != strings.Join(gt, ",") {
		t.Fatalf("tags: %v vs %v", gt, wt)
	}
	for _, tag := range wt {
		we, ge := want.Freq.Entries(tag), got.Freq.Entries(tag)
		if len(we) != len(ge) {
			t.Fatalf("%s: %d vs %d entries", tag, len(ge), len(we))
		}
		// First-occurrence order differs between preorder (tree) and
		// postorder (stream) collection when tags recurse; compare as
		// sets — downstream histograms sort by frequency anyway.
		wm := map[string]float64{}
		for _, e := range we {
			wm[e.Pid.Key()] = e.Freq
		}
		for _, e := range ge {
			if wm[e.Pid.Key()] != e.Freq {
				t.Fatalf("%s pid %s: %v vs %v", tag, e.Pid, e.Freq, wm[e.Pid.Key()])
			}
		}
	}

	// Order tables.
	if got.Order.NumCells() != want.Order.NumCells() {
		t.Fatalf("order cells: %d vs %d", got.Order.NumCells(), want.Order.NumCells())
	}
	gotPid := interned(t, got.Labeling)
	for _, tag := range want.Order.Tags() {
		wTab, gTab := want.Order.Table(tag), got.Order.Table(tag)
		if gTab == nil {
			t.Fatalf("missing order table for %s", tag)
		}
		for _, cell := range wTab.Cells() {
			if g := gTab.Get(cell.Region, gotPid(cell.Pid.String()), cell.SibTag); g != cell.Count {
				t.Fatalf("%s g(%s,%s) %v: %v vs %v", tag, cell.Pid, cell.SibTag, cell.Region, g, cell.Count)
			}
		}
	}
}

func TestStreamMatchesTreeFigure1(t *testing.T) {
	doc := paperfig.Doc()
	want := Collect(doc, nil)
	got, err := CollectStream(openerFor(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, want, got)
}

func TestStreamMatchesTreeDatasets(t *testing.T) {
	for _, ds := range datagen.Datasets() {
		t.Run(ds.Name, func(t *testing.T) {
			doc := ds.Gen(datagen.Config{Seed: 9, Scale: 0.01})
			want := Collect(doc, nil)
			got, err := CollectStream(openerFor(t, doc))
			if err != nil {
				t.Fatal(err)
			}
			assertTablesEqual(t, want, got)
		})
	}
}

func TestStreamErrors(t *testing.T) {
	bad := func(xml string) func() (io.ReadCloser, error) {
		return func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(xml)), nil
		}
	}
	// The malformed inputs of xmltree's TestParseErrors.
	for _, c := range []string{
		"",
		"   <!-- only a comment -->",
		"<!-- nothing -->",
		"<a><b></b>",
		"<a></b>",
		"<a></a><b></b>",
		"<a/><b/>",
		"not xml at all <",
		"</a>",
		"<a></a></b>",
		"<a/></a>",
		"<a>",
		"<a><b>",
	} {
		if _, err := CollectStream(bad(c)); !errors.Is(err, guard.ErrMalformedDocument) {
			t.Errorf("CollectStream(%q) = %v, want ErrMalformedDocument", c, err)
		}
	}
	// An opener failure passes through unchanged, in either pass.
	fail := func() (io.ReadCloser, error) { return nil, io.ErrUnexpectedEOF }
	if _, err := CollectStream(fail); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("opener error: got %v, want io.ErrUnexpectedEOF", err)
	}
	calls := 0
	secondFails := func() (io.ReadCloser, error) {
		if calls++; calls == 2 {
			return nil, io.ErrUnexpectedEOF
		}
		return io.NopCloser(strings.NewReader("<a><b/></a>")), nil
	}
	if _, err := CollectStream(secondFails); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("pass-2 opener error: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Differing streams between passes are the caller's fault.
	calls = 0
	flaky := func() (io.ReadCloser, error) {
		if calls++; calls == 1 {
			return io.NopCloser(strings.NewReader("<a><b/></a>")), nil
		}
		return io.NopCloser(strings.NewReader("<a><c/></a>")), nil
	}
	if _, err := CollectStream(flaky); !errors.Is(err, guard.ErrInvalidArgument) {
		t.Errorf("differing passes: got %v, want ErrInvalidArgument", err)
	}
}

// Property: streaming and tree-based collection agree on random
// documents.
func TestQuickStreamEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 2+rng.Intn(150))
		want := Collect(doc, nil)

		var buf bytes.Buffer
		if err := doc.WriteXML(&buf, false); err != nil {
			return false
		}
		data := buf.Bytes()
		got, err := CollectStream(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		})
		if err != nil {
			return false
		}
		if got.Labeling.NumDistinct() != want.Labeling.NumDistinct() {
			return false
		}
		if got.Order.NumCells() != want.Order.NumCells() {
			return false
		}
		for _, tag := range want.Freq.Tags() {
			we, ge := want.Freq.Entries(tag), got.Freq.Entries(tag)
			if len(we) != len(ge) {
				return false
			}
			wm := map[string]float64{}
			for _, e := range we {
				wm[e.Pid.Key()] = e.Freq
			}
			for _, e := range ge {
				if wm[e.Pid.Key()] != e.Freq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCollectStream times both streaming passes over serialized
// XML: SSPlays at scale 0.02, and XMark at perfbench's scale (seed 1,
// scale 0.125).
func BenchmarkCollectStream(b *testing.B) {
	for _, c := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"SSPlays", datagen.SSPlays(datagen.Config{Seed: 1, Scale: 0.02})},
		{"XMark", datagen.XMark(datagen.Config{Seed: 1, Scale: 0.125})},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := c.doc.WriteXML(&buf, false); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectStream(func() (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(data)), nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
