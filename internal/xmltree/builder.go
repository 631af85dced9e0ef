package xmltree

// Builder constructs a Document programmatically. The dataset
// generators and tests use it to build trees without going through XML
// serialization. Methods follow the element-open/close discipline of a
// SAX writer.
//
//	b := xmltree.NewBuilder()
//	b.Open("Root")
//	b.Open("A")
//	b.Leaf("B", "")
//	b.Close() // A
//	b.Close() // Root
//	doc := b.Document()
type Builder struct {
	t     tree
	bytes int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Open starts a new element with the given tag as a child of the
// current element (or as the root) and makes it current. It panics if
// a second root is opened.
func (b *Builder) Open(tag string) *Builder {
	if len(b.t.stack) == 0 && b.t.root != nil {
		//lint:ignore panicpolicy Builder is an in-process construction API for generators and tests; misuse is a programming error, untrusted XML goes through Parse
		panic("xmltree: Builder: second root element " + tag)
	}
	b.t.Open(tag)
	// Approximate serialized size: <tag></tag> plus newline.
	b.bytes += int64(2*len(tag) + 6)
	return b
}

// Text appends character data to the current element.
func (b *Builder) Text(s string) *Builder {
	if len(b.t.stack) == 0 {
		//lint:ignore panicpolicy Builder is an in-process construction API for generators and tests; misuse is a programming error, untrusted XML goes through Parse
		panic("xmltree: Builder: Text outside any element")
	}
	b.t.stack[len(b.t.stack)-1].addText(s)
	b.bytes += int64(len(s))
	return b
}

// Close ends the current element. It panics if no element is open.
func (b *Builder) Close() *Builder {
	if len(b.t.stack) == 0 {
		//lint:ignore panicpolicy Builder is an in-process construction API for generators and tests; misuse is a programming error, untrusted XML goes through Parse
		panic("xmltree: Builder: Close with no open element")
	}
	b.t.Close()
	return b
}

// Leaf emits an element with optional text and immediately closes it.
func (b *Builder) Leaf(tag, text string) *Builder {
	b.Open(tag)
	if text != "" {
		b.Text(text)
	}
	return b.Close()
}

// Depth returns the number of currently open elements.
func (b *Builder) Depth() int { return len(b.t.stack) }

// Document finalizes and returns the built document. It panics if
// elements remain open or nothing was built.
func (b *Builder) Document() *Document {
	if len(b.t.stack) != 0 {
		//lint:ignore panicpolicy Builder is an in-process construction API for generators and tests; misuse is a programming error, untrusted XML goes through Parse
		panic("xmltree: Builder: Document with unclosed element " + b.t.stack[len(b.t.stack)-1].Tag)
	}
	if b.t.root == nil {
		//lint:ignore panicpolicy Builder is an in-process construction API for generators and tests; misuse is a programming error, untrusted XML goes through Parse
		panic("xmltree: Builder: empty document")
	}
	d := &Document{Root: b.t.root, Bytes: b.bytes}
	d.finalize()
	return d
}
