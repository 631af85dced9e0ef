package xmltree

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xpathest/internal/guard"
)

const figure1XML = `<Root>
  <A><B><D/><E/></B></A>
  <A><B><D/></B><C><E/><F/></C><B><D/></B></A>
  <A><C><E/></C><B><D/></B></A>
</Root>`

func TestParseFigure1(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Tag != "Root" {
		t.Fatalf("root tag = %q", doc.Root.Tag)
	}
	if got := doc.NumElements(); got != 18 {
		t.Fatalf("NumElements = %d, want 18", got)
	}
	if got := doc.NumDistinctTags(); got != 7 {
		t.Fatalf("NumDistinctTags = %d, want 7", got)
	}
	wantCounts := map[string]int{"Root": 1, "A": 3, "B": 4, "C": 2, "D": 4, "E": 3, "F": 1}
	if !reflect.DeepEqual(doc.Tags(), wantCounts) {
		t.Fatalf("Tags = %v, want %v", doc.Tags(), wantCounts)
	}
}

func TestDocumentOrderAndPos(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	doc.Walk(func(n *Node) bool {
		if n.Ord != prev+1 {
			t.Fatalf("document order gap at %s: ord %d after %d", n.Tag, n.Ord, prev)
		}
		prev = n.Ord
		for i, c := range n.Children {
			if c.Pos != i {
				t.Fatalf("child %s of %s has Pos %d, want %d", c.Tag, n.Tag, c.Pos, i)
			}
			if c.Parent != n {
				t.Fatalf("child %s of %s has wrong parent", c.Tag, n.Tag)
			}
		}
		return true
	})
	if prev != doc.NumElements()-1 {
		t.Fatalf("walk visited %d nodes, want %d", prev+1, doc.NumElements())
	}
}

func TestPathTags(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var firstD *Node
	doc.Walk(func(n *Node) bool {
		if n.Tag == "D" && firstD == nil {
			firstD = n
		}
		return true
	})
	if firstD == nil {
		t.Fatal("no D found")
	}
	if got := firstD.PathString(); got != "Root/A/B/D" {
		t.Fatalf("PathString = %q, want Root/A/B/D", got)
	}
	if firstD.Root() != doc.Root {
		t.Fatal("Root() did not reach document root")
	}
}

func TestParseText(t *testing.T) {
	doc, err := ParseString(`<a>hello <b>x</b> world</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Text != "hello world" {
		t.Fatalf("Text = %q", doc.Root.Text)
	}
	if doc.Root.Children[0].Text != "x" {
		t.Fatalf("child text = %q", doc.Root.Children[0].Text)
	}
}

// TestParseErrors pins the error kind of malformed input. The
// streaming collector's TestStreamErrors runs the same inputs through
// its two Scan passes.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no element", "   <!-- only a comment -->"},
		{"comment only", "<!-- nothing -->"},
		{"unclosed", "<a><b></b>"},
		{"mismatched", "<a></b>"},
		{"two roots", "<a></a><b></b>"},
		{"two empty roots", "<a/><b/>"},
		{"garbage", "not xml at all <"},
		// Balance: Scan relies on the strict decoder to reject these.
		{"end without start", "</a>"},
		{"end after root", "<a></a></b>"},
		{"end after empty root", "<a/></a>"},
		{"unclosed root", "<a>"},
		{"unclosed child", "<a><b>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.in); !errors.Is(err, guard.ErrMalformedDocument) {
				t.Fatalf("ParseString(%q) = %v, want ErrMalformedDocument", c.in, err)
			}
		})
	}
}

func TestParseCountsBytes(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Bytes != int64(len(figure1XML)) {
		t.Fatalf("Bytes = %d, want %d", doc.Bytes, len(figure1XML))
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	b := NewBuilder()
	b.Open("Root")
	b.Open("A").Open("B").Leaf("D", "").Leaf("E", "").Close().Close()
	b.Open("A").
		Open("B").Leaf("D", "").Close().
		Open("C").Leaf("E", "").Leaf("F", "").Close().
		Open("B").Leaf("D", "").Close().
		Close()
	b.Open("A").
		Open("C").Leaf("E", "").Close().
		Open("B").Leaf("D", "").Close().
		Close()
	b.Close()
	built := b.Document()

	parsed, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	if !sameShape(built.Root, parsed.Root) {
		t.Fatal("builder tree differs from parsed tree")
	}
	if built.NumElements() != parsed.NumElements() {
		t.Fatalf("element counts differ: %d vs %d", built.NumElements(), parsed.NumElements())
	}
}

func sameShape(a, b *Node) bool {
	if a.Tag != b.Tag || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameShape(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
	mustPanic("close empty", func() { NewBuilder().Close() })
	mustPanic("text outside", func() { NewBuilder().Text("x") })
	mustPanic("unclosed document", func() {
		b := NewBuilder()
		b.Open("a")
		b.Document()
	})
	mustPanic("empty document", func() { NewBuilder().Document() })
	mustPanic("second root", func() {
		b := NewBuilder()
		b.Open("a").Close()
		b.Open("b")
	})
}

func TestBuilderDepth(t *testing.T) {
	b := NewBuilder()
	if b.Depth() != 0 {
		t.Fatal("initial depth nonzero")
	}
	b.Open("a").Open("b")
	if b.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", b.Depth())
	}
	b.Close().Close()
	if b.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", b.Depth())
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	for _, indent := range []bool{false, true} {
		var buf bytes.Buffer
		if err := doc.WriteXML(&buf, indent); err != nil {
			t.Fatal(err)
		}
		re, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse (indent=%v): %v", indent, err)
		}
		if !sameShape(doc.Root, re.Root) {
			t.Fatalf("round trip changed shape (indent=%v)", indent)
		}
	}
}

func TestWriteXMLEscapesText(t *testing.T) {
	b := NewBuilder()
	b.Open("a").Text(`<&>"tricky"`).Close()
	var buf bytes.Buffer
	if err := b.Document().WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	re, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, buf.String())
	}
	if re.Root.Text != `<&>"tricky"` {
		t.Fatalf("text round trip = %q", re.Root.Text)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	doc, err := ParseString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	doc.Walk(func(*Node) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("walk visited %d, want 5", n)
	}
}

// randomDoc builds a random tree with up to maxNodes elements drawn
// from a small tag alphabet.
func randomDoc(rng *rand.Rand, maxNodes int) *Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	n := 1
	b.Open("root")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(4)
		for i := 0; i < kids && n < maxNodes; i++ {
			n++
			b.Open(tags[rng.Intn(len(tags))])
			if depth < 6 {
				grow(depth + 1)
			}
			b.Close()
		}
	}
	grow(0)
	b.Close()
	return b.Document()
}

// Property: serialization round-trips structure and counts for random
// documents.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(80))
		var buf bytes.Buffer
		if err := doc.WriteXML(&buf, seed%2 == 0); err != nil {
			return false
		}
		re, err := Parse(&buf)
		if err != nil {
			return false
		}
		return sameShape(doc.Root, re.Root) &&
			re.NumElements() == doc.NumElements() &&
			reflect.DeepEqual(re.Tags(), doc.Tags())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: preorder document order is consistent with the
// parent/child and sibling relations.
func TestQuickDocumentOrderInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 1+rng.Intn(100))
		ok := true
		doc.Walk(func(n *Node) bool {
			for i, c := range n.Children {
				if c.Ord <= n.Ord { // child after parent
					ok = false
				}
				if i > 0 && c.Ord <= n.Children[i-1].Ord { // siblings ordered
					ok = false
				}
				if c.Pos != i || c.Parent != n {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeDocumentDepth(t *testing.T) {
	// A pathological 5000-deep chain must parse and walk without
	// stack/recursion issues in Walk (it is iterative).
	var sb strings.Builder
	const depth = 5000
	for i := 0; i < depth; i++ {
		sb.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("</a>")
	}
	doc, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	doc.Walk(func(*Node) bool { count++; return true })
	if count != depth {
		t.Fatalf("walked %d nodes, want %d", count, depth)
	}
}

func BenchmarkParse(b *testing.B) {
	data := []byte(strings.Repeat(figure1XML, 1))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
