package xmltree_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"xpathest/internal/datagen"
	"xpathest/internal/guard"
	"xpathest/internal/xmltree"
)

// scanSeeds are the corner cases of encoding/xml's syntax that the
// scanner reproduces. FuzzParse starts from them, and
// TestScanMatchesReference runs them and mutations of them.
var scanSeeds = []string{
	// Names: prefixes, colons, non-ASCII letters.
	`<p:a xmlns:p="urn:p" xmlns="urn:d"><p:b/><c xml:lang="en"/></p:a>`,
	`<p:a></q:a>`,
	`<p:a></a>`,
	`<a:b:c/>`,
	`<a x:y:z="1"/>`,
	`<?a:b:c d?><a/>`,
	`<:a></:a>`,
	`<a:></a:>`,
	`<é><ü/></é>`,
	`<a é="1" ü:ö="2"/>`,
	"<a·/>",
	"<·a/>",
	"<a\xff/>",
	`<1a/>`,
	`<-a/>`,
	`<_a.b-c/>`,
	// Entities and character references.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x1F600;&#00000065;</a>`,
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#99999999999999999999999;</a>`,
	`<a>&#65</a>`,
	`<a>&amp</a>`,
	`<a>&bogus;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&;</a>`,
	`<a>& b</a>`,
	`<a>&#9;&#10;&#13;&#xFFFD;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#1;</a>`,
	`<a b="&lt;&#65;&#xD800;"/>`,
	`<a b="&#0;"/>`,
	`<a b="&bad;"/>`,
	`<a b="&amp"/>`,
	// "]]>" in text and in attribute values.
	`<a>x]]>y</a>`,
	`<a>]]]></a>`,
	`<a>]]</a>`,
	`<a>]&#93;></a>`,
	`<a b="]]>"/>`,
	// CDATA.
	`<a><![CDATA[<b>&amp;]]></a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[x]]]></a>`,
	"<a><![CDATA[\r\nx\ry\xff]]></a>",
	`<a><![CDAT[x]]></a>`,
	`<a><![CDATA[unterminated</a>`,
	// Directives.
	`<!><a/>`,
	`<!DOCTYPE a [<!ENTITY e "x>y"> <!-- c > d --> <!ELEMENT a (#PCDATA)>]><a/>`,
	`<!DOCTYPE a '>'><a/>`,
	`<!DOCTYPE a <!x> ><a/>`,
	`<!DOCTYPE a <!-->--> ><a/>`,
	`<!DOCTYPE a <> ><a/>`,
	`<!DOCTYPE<a/>`,
	// Comments.
	`<a><!-- c -- d --></a>`,
	`<a><!----></a>`,
	`<a><!---></a>`,
	`<a><!--->--></a>`,
	`<a><!- x --></a>`,
	"<a><!-- \xff --></a>",
	// Processing instructions and the XML declaration.
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version='1.0' encoding='utf-8' standalone='yes'?><a/>`,
	`<?xml version="1.1"?><a><b/></a>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a><b/></a>`,
	`<?xml version = "1.1"?><a/>`,
	`<?xml versionx="1.1" version="1.0"?><a/>`,
	`<?xml?><a/>`,
	`<?XML version="9"?><a/>`,
	`<a><?pi x?></a>`,
	`<??><a/>`,
	`<?1x?><a/>`,
	`<a/><?xml version="2"?>`,
	// CR and CRLF.
	"<a>x\r\ny\rz\n\r\r\n</a>",
	"<a\r\nb='1'\r/>",
	"<a>&#13;\n\r&#10;</a>",
	// Invalid and unusual characters.
	"<a>\xff</a>",
	"<a>\xc3</a>",
	"<a>\xef\xbf\xbe</a>",
	"<a>\xef\xbf\xbf</a>",
	"<a>\xed\xa0\x80</a>",
	"\xef\xbb\xbf<a/>",
	"<a>\x01</a>",
	"<a>\x00</a>",
	"<a>\x7f\u0085\U0010FFFF</a>",
	"<a b='\xff'/>",
	// Structure and attribute syntax.
	`<a/>text after the root`,
	`<a/>x!`,
	`<a/>&bad;`,
	"<a/>\xff",
	`text before<a/>`,
	`<a></a><!-- tail -->`,
	`<a b='1' c="2"/>`,
	`<a b='1'c='2'/>`,
	`<a b=1/>`,
	`<a b/>`,
	`<a b='<'/>`,
	`<a / >`,
	`<a/ >`,
	`< a/>`,
	`<a></a >`,
	`<a></ a>`,
	`<a></a b>`,
	`<a>hello`,
	`<a b="x`,
	`<`,
}

// readers are the ways a test hands an input to Scan: whole, and in
// pieces, so tokens straddle its refills.
var readers = []struct {
	name  string
	whole bool
	wrap  func(io.Reader) io.Reader
}{
	{"whole", true, func(r io.Reader) io.Reader { return r }},
	{"one-byte", false, iotest.OneByteReader},
	{"half", false, iotest.HalfReader},
}

// checkScan fails t if Scan differs from the reference on in, through
// any of the readers.
func checkScan(t *testing.T, name string, in []byte) {
	t.Helper()
	want := run(referenceScan, bytes.NewReader(in))
	for _, rd := range readers {
		if d := diverge(in, want, run(xmltree.Scan, rd.wrap(bytes.NewReader(in))), rd.whole); d != "" {
			t.Errorf("%s, %s reader: %.300s\ninput %.300q", name, rd.name, d, in)
		}
	}
}

// TestScanMatchesReference holds Scan to the reference: the seeds, the
// seeds cut short by a read error at every byte, a fixed-seed mutation
// sweep of them, the three datagen documents, and tokens longer than
// the scanner's buffer.
func TestScanMatchesReference(t *testing.T) {
	for i, s := range scanSeeds {
		checkScan(t, fmt.Sprintf("seed %d", i), []byte(s))
	}

	errCut := errors.New("connection reset")
	for i, s := range scanSeeds {
		for k := 0; k <= len(s); k++ {
			cut := func() io.Reader { return io.MultiReader(strings.NewReader(s[:k]), iotest.ErrReader(errCut)) }
			want, got := run(referenceScan, cut()), run(xmltree.Scan, cut())
			if d := diverge([]byte(s[:k]), want, got, true); d != "" {
				t.Errorf("seed %d cut at %d: %s\ninput %q", i, k, d, s[:k])
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	pieces := []string{"<", ">", "/", "!", "?", "-", "[", "]", "&", ";", "#", "x", "'", `"`, "=", " ", "\r", "\n",
		":", "a", "b", "é", "\xff", "\x00", "<!--", "-->", "]]>", "<![CDATA[", "&amp;", "&#", "</a>", "<a>", "<b/>", "<?xml ", "version=\"1.1\""}
	for i := 0; i < 20000; i++ {
		in := []byte(scanSeeds[rng.Intn(len(scanSeeds))])
		for m := 1 + rng.Intn(3); m > 0; m-- {
			at := rng.Intn(len(in) + 1)
			switch rng.Intn(3) {
			case 0:
				p := pieces[rng.Intn(len(pieces))]
				in = append(in[:at:at], append([]byte(p), in[at:]...)...)
			case 1:
				in = append(in[:at:at], in[min(len(in), at+1+rng.Intn(3)):]...)
			default:
				if at < len(in) {
					in[at] = byte(rng.Intn(256))
				}
			}
		}
		checkScan(t, fmt.Sprintf("mutation %d", i), in)
		if t.Failed() {
			t.FailNow()
		}
	}

	for _, g := range datagen.Datasets() {
		for _, indent := range []bool{false, true} {
			var buf bytes.Buffer
			if err := g.Gen(datagen.Config{Seed: 1, Scale: 0.01}).WriteXML(&buf, indent); err != nil {
				t.Fatal(err)
			}
			checkScan(t, fmt.Sprintf("%s (indent %v)", g.Name, indent), buf.Bytes())
		}
	}

	long := strings.Repeat("word &amp; \r\n", 20000)
	for _, in := range []string{
		"<a>" + long + "</a>",
		"<a><![CDATA[" + long + "]]></a>",
		"<a><!--" + strings.ReplaceAll(long, "&amp;", "") + "--></a>",
		`<a b="` + long + `"/>`,
		"<a>" + long,
		"<" + strings.Repeat("n", 100000) + "/>",
	} {
		checkScan(t, fmt.Sprintf("long token %.12q", in), []byte(in))
	}
}

// TestScanReaderErrors pins the reader-side contracts: an error from the
// reader, after several refills, comes back as itself and not as a
// malformed document, a reader that keeps returning nothing is an
// error and not a hang, and MaxDocumentBytes fires on a document longer
// than one buffer.
func TestScanReaderErrors(t *testing.T) {
	if _, err := xmltree.Scan(nil, stuckReader{}, guard.Limits{}, nop{}); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("reader returning nothing: got %v, want %v", err, io.ErrNoProgress)
	}
	doc := []byte("<r>" + strings.Repeat("<a>text &amp; more</a>\n", 15000) + "</r>")
	errRead := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader(doc[:250000]), iotest.ErrReader(errRead))
	if _, err := xmltree.Scan(nil, r, guard.Limits{}, nop{}); !errors.Is(err, errRead) || errors.Is(err, guard.ErrMalformedDocument) {
		t.Errorf("reader failing after %d bytes: got %v, want %v", 250000, err, errRead)
	}
	for _, c := range []struct {
		max  int64
		want error
	}{
		{200000, guard.ErrLimitExceeded},
		{int64(len(doc)) - 1, guard.ErrLimitExceeded},
		{int64(len(doc)), nil},
	} {
		n, err := xmltree.Scan(nil, bytes.NewReader(doc), guard.Limits{MaxDocumentBytes: c.max}, nop{})
		if !errors.Is(err, c.want) {
			t.Errorf("%d-byte document under MaxDocumentBytes %d: got %v after %d bytes, want %v", len(doc), c.max, err, n, c.want)
		}
	}
}

// FuzzParse checks that the XML parser never panics, that every
// accepted document walks whole, and that Scan agrees with the
// reference, read whole and byte by byte.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"<a/>",
		"<a><b>hi</b><b/></a>",
		"<Root><A><B><D/><E/></B></A></Root>",
		"<a>text <b>mixed</b> tail</a>",
		"<a><b></a>",
		"<a></a><b></b>",
		"<!-- only a comment -->",
		"<a attr=\"1\"><b/></a>",
		"<a>&lt;&amp;&gt;</a>",
	} {
		f.Add(seed)
	}
	for _, seed := range scanSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		in := []byte(input)
		want := run(referenceScan, bytes.NewReader(in))
		if d := diverge(in, want, run(xmltree.Scan, bytes.NewReader(in)), true); d != "" {
			t.Fatalf("whole reader: %s", d)
		}
		if d := diverge(in, want, run(xmltree.Scan, iotest.OneByteReader(bytes.NewReader(in))), false); d != "" {
			t.Fatalf("one-byte reader: %s", d)
		}
		doc, err := xmltree.ParseString(input)
		if err != nil {
			return
		}
		if doc.Root == nil || doc.NumElements() == 0 {
			t.Fatalf("accepted document without elements: %q", input)
		}
		n := 0
		doc.Walk(func(*xmltree.Node) bool { n++; return true })
		if n != doc.NumElements() {
			t.Fatalf("walk saw %d of %d elements", n, doc.NumElements())
		}
	})
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

type nop struct{}

func (nop) Open(string)  {}
func (nop) Text([]byte)  {}
func (nop) Close() error { return nil }

var (
	corpusOnce sync.Once
	corpus     map[string][]byte
)

// perfbenchCorpus returns the documents perfbench serves: datagen seed
// 1, SSPlays and XMark at scale 0.125, DBLP at 0.015.
func perfbenchCorpus(b *testing.B) map[string][]byte {
	corpusOnce.Do(func() {
		corpus = map[string][]byte{}
		for _, g := range datagen.Datasets() {
			scale := 0.125
			if g.Name == "DBLP" {
				scale = 0.015
			}
			var buf bytes.Buffer
			if err := g.Gen(datagen.Config{Seed: 1, Scale: scale}).WriteXML(&buf, false); err != nil {
				b.Fatal(err)
			}
			corpus[g.Name] = buf.Bytes()
		}
	})
	return corpus
}

// BenchmarkParse times Parse over perfbench's documents, and Scan alone
// into a handler that does nothing.
func BenchmarkParse(b *testing.B) {
	for _, name := range []string{"SSPlays", "DBLP", "XMark"} {
		b.Run(name, func(b *testing.B) {
			data := perfbenchCorpus(b)[name]
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.Parse(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Scan/"+name, func(b *testing.B) {
			data := perfbenchCorpus(b)[name]
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.Scan(nil, bytes.NewReader(data), guard.Limits{}, nop{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
