package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"xpathest/internal/guard"
)

// The token kinds scanner.next returns.
const (
	tokOpen = iota + 1
	tokClose
	tokText
	tokOther // a comment, processing instruction or directive
)

// bufSize is the scanner's first read buffer. It grows only for a
// token longer than itself.
const bufSize = 64 << 10

// errShort reports a token that runs past the buffered input while the
// reader may have more.
var errShort = errors.New("xmltree: token runs past the buffer")

// scanner tokenizes one XML document by the rules of encoding/xml's
// strict Decoder.Token: it accepts and rejects the same inputs and
// yields the same elements and character data. It scans names, text
// and terminators inside one read buffer, hands out text as a slice of
// that buffer when nothing in it needs decoding, interns element
// names, and matches end tags against the raw names of the open
// elements.
type scanner struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read but not yet scanned
	n        int64 // bytes read from r
	err      error // r's first error, io.EOF included, met once buf[pos:end] is scanned

	open    []string // raw names (prefix included) of the open elements
	closing bool     // the element atop open was self-closing and still owes its end
	names   map[string]qname

	tag  string // local name of the last start tag
	data []byte // the last character data
	text []byte // decoded character data
}

// qname is an interned XML name: raw as written, local without its
// prefix. local is empty for a name with more than one colon, which
// encoding/xml accepts only as a processing instruction's target.
type qname struct{ raw, local string }

// next scans the next token. At the end of a document whose elements
// are all closed it returns io.EOF.
func (s *scanner) next() (int, error) {
	if s.closing {
		s.closing = false
		s.open = s.open[:len(s.open)-1]
		return tokClose, nil
	}
	for {
		kind, err := s.token()
		if err != errShort {
			return kind, err
		}
		s.more()
	}
}

// more reads on from r after the token at s.pos ran past the buffer.
// It moves the token's bytes to the front of the buffer, doubling the
// buffer when the token fills it, and reads until the token's bytes
// have doubled, the buffer is full or r fails: rescanning a token from
// its start then costs time linear in its length, however r splits
// the input.
func (s *scanner) more() {
	have := s.end - s.pos
	if have == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	} else if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
	}
	s.pos, s.end = 0, have
	want := min(2*have+1, len(s.buf))
	for empty := 0; s.end < want && s.err == nil; {
		n, err := s.r.Read(s.buf[s.end:])
		s.end, s.n, s.err = s.end+n, s.n+int64(n), err
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			s.err = io.ErrNoProgress
		}
	}
}

// short is the error of a token that runs past the buffered input:
// errShort while r may have more, else r's own error, or a malformed
// document if the input just ended.
func (s *scanner) short() error {
	switch {
	case s.err == nil:
		return errShort
	case s.err == io.EOF:
		return s.malformed("unexpected EOF")
	}
	return fmt.Errorf("xmltree: parse: %w", s.err)
}

// malformed reports a syntax error in the token at s.pos.
func (s *scanner) malformed(format string, args ...any) error {
	at := s.n - int64(s.end-s.pos)
	return fmt.Errorf("xmltree: parse: at byte %d: %s: %w", at, fmt.Sprintf(format, args...), guard.ErrMalformedDocument)
}

// token scans the token at s.pos and moves s.pos past it.
func (s *scanner) token() (int, error) {
	b := s.buf[s.pos:s.end]
	switch {
	case len(b) == 0 && s.err == io.EOF && len(s.open) == 0:
		return 0, io.EOF
	case len(b) == 0 || b[0] == '<' && (len(b) == 1 || len(b) == 2 && b[1] == '!'):
		return 0, s.short()
	case b[0] != '<':
		return s.charData()
	case b[1] == '/':
		return s.endTag()
	case b[1] == '?':
		return s.procInst()
	case b[1] != '!':
		return s.startTag()
	case b[2] == '-':
		return s.comment()
	case b[2] == '[':
		return s.cdata()
	}
	return s.directive()
}

// charData scans the text up to the next '<', or to the end of the
// input.
func (s *scanner) charData() (int, error) {
	b := s.buf[s.pos:s.end]
	n := bytes.IndexByte(b, '<')
	cut := n < 0
	if cut {
		if s.err == nil {
			return 0, errShort
		}
		n = len(b)
	}
	data, err := s.chars(b[:n], textMode, cut)
	if err != nil {
		return 0, err
	}
	s.data = data
	s.pos += n
	return tokText, nil
}

// startTag scans "<name attr='value' ...>" or its self-closing form,
// and opens the element.
func (s *scanner) startTag() (int, error) {
	b := s.buf[s.pos:s.end]
	i := nameEnd(b, 1)
	if i == len(b) {
		return 0, s.short()
	}
	q, ok := s.name(b[1:i])
	if !ok || q.local == "" {
		return 0, s.malformed("expected element name after <")
	}
	for {
		i = skipSpace(b, i)
		switch {
		case i == len(b) || b[i] == '/' && i+1 == len(b):
			return 0, s.short()
		case b[i] == '/' && b[i+1] != '>':
			return 0, s.malformed("expected /> in element")
		case b[i] == '/' || b[i] == '>':
			s.closing = b[i] == '/'
			if s.closing {
				i++
			}
			s.pos += i + 1
			s.open = append(s.open, q.raw)
			s.tag = q.local
			return tokOpen, nil
		}
		j := nameEnd(b, i)
		if j == len(b) {
			return 0, s.short()
		}
		if a, ok := s.name(b[i:j]); !ok || a.local == "" {
			return 0, s.malformed("expected attribute name in element")
		}
		if i = skipSpace(b, j); i < len(b) && b[i] == '=' {
			i = skipSpace(b, i+1)
		} else if i < len(b) {
			return 0, s.malformed("attribute name without = in element")
		}
		switch {
		case i == len(b):
			return 0, s.short()
		case b[i] != '"' && b[i] != '\'':
			return 0, s.malformed("unquoted or missing attribute value in element")
		}
		i++
		k := bytes.IndexByte(b[i:], b[i-1])
		if k < 0 && s.err == nil {
			return 0, errShort
		}
		if k < 0 {
			// The input ends inside the value, which is checked first.
			if _, err := s.chars(b[i:], attrMode, true); err != nil {
				return 0, err
			}
			return 0, s.short()
		}
		if _, err := s.chars(b[i:i+k], attrMode, false); err != nil {
			return 0, err
		}
		i += k + 1
	}
}

// endTag scans "</name>", which must close the innermost open element
// by the same raw name.
func (s *scanner) endTag() (int, error) {
	b := s.buf[s.pos:s.end]
	i := nameEnd(b, 2)
	if i == len(b) {
		return 0, s.short()
	}
	raw := b[2:i]
	match := len(s.open) > 0 && string(raw) == s.open[len(s.open)-1]
	if !match {
		if q, ok := s.name(raw); !ok || q.local == "" {
			return 0, s.malformed("expected element name after </")
		}
	}
	switch i = skipSpace(b, i); {
	case i == len(b):
		return 0, s.short()
	case b[i] != '>':
		return 0, s.malformed("invalid characters between </%s and >", raw)
	case len(s.open) == 0:
		return 0, s.malformed("unexpected end element </%s>", raw)
	case !match:
		return 0, s.malformed("element <%s> closed by </%s>", s.open[len(s.open)-1], raw)
	}
	s.pos += i + 1
	s.open = s.open[:len(s.open)-1]
	return tokClose, nil
}

// procInst scans "<?target ...?>". An <?xml ...?> declaration must name
// version 1.0, if any, and the UTF-8 encoding, if any.
func (s *scanner) procInst() (int, error) {
	b := s.buf[s.pos:s.end]
	i := nameEnd(b, 2)
	if i == len(b) {
		return 0, s.short()
	}
	target := b[2:i]
	if _, ok := s.name(target); !ok {
		return 0, s.malformed("expected target name after <?")
	}
	i = skipSpace(b, i)
	k := bytes.Index(b[i:], []byte("?>"))
	if k < 0 {
		return 0, s.short()
	}
	if content := b[i : i+k]; string(target) == "xml" {
		if v := declParam(content, "version"); v != "" && v != "1.0" {
			return 0, s.malformed("unsupported XML version %q; only version 1.0 is supported", v)
		}
		if e := declParam(content, "encoding"); e != "" && !strings.EqualFold(e, "utf-8") {
			return 0, s.malformed("unsupported encoding %q; only UTF-8 is supported", e)
		}
	}
	s.pos += i + k + 2
	return tokOther, nil
}

// declParam returns the value of param in an XML declaration's
// content as encoding/xml reads it: after the first "param=" that is
// followed by a quote, up to the next such quote; "" if there is none.
func declParam(content []byte, param string) string {
	key := []byte(param + "=")
	for i := 0; ; {
		k := bytes.Index(content[i:], key)
		if k < 0 || i+k+len(key) >= len(content) {
			return ""
		}
		i += k + len(key) + 1
		if quote := content[i-1]; quote == '"' || quote == '\'' {
			if end := bytes.IndexByte(content[i:], quote); end >= 0 {
				return string(content[i : i+end])
			}
			return ""
		}
	}
}

// comment scans "<!--...-->"; "--" may not occur inside.
func (s *scanner) comment() (int, error) {
	b := s.buf[s.pos:s.end]
	k := -1
	if len(b) > 4 {
		k = bytes.Index(b[4:], []byte("--"))
	}
	switch i := 4 + k + 2; {
	case len(b) > 3 && b[3] != '-':
		return 0, s.malformed("invalid sequence <!- not part of <!--")
	case k < 0 || i == len(b):
		return 0, s.short()
	case b[i] != '>':
		return 0, s.malformed(`invalid sequence "--" not allowed in comments`)
	default:
		s.pos += i + 1
		return tokOther, nil
	}
}

// cdata scans "<![CDATA[...]]>", whose content is character data.
func (s *scanner) cdata() (int, error) {
	const open = "<![CDATA["
	b := s.buf[s.pos:s.end]
	for i := 3; i < len(open); i++ {
		if i < len(b) && b[i] != open[i] {
			return 0, s.malformed("invalid <![ sequence")
		}
	}
	k := -1
	if len(b) >= len(open) {
		k = bytes.Index(b[len(open):], []byte("]]>"))
	}
	if k < 0 {
		return 0, s.short()
	}
	data, err := s.chars(b[len(open):len(open)+k], cdataMode, false)
	if err != nil {
		return 0, err
	}
	s.data = data
	s.pos += len(open) + k + 3
	return tokText, nil
}

// directive scans "<!...>", such as a DOCTYPE. The byte after "<!" is
// taken as it is; after it, quotes hide '<' and '>', "<!--" starts a
// comment that runs to the first "-->", any other '<' nests one level
// and '>' closes one, and the '>' outside quotes and levels ends the
// directive.
func (s *scanner) directive() (int, error) {
	b := s.buf[s.pos:s.end]
	var quote byte
	depth := 0
	for i := 3; ; {
		if i == len(b) {
			return 0, s.short()
		}
		c := b[i]
		i++
		switch {
		case quote == 0 && c == '>' && depth == 0:
			s.pos += i
			return tokOther, nil
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<' && len(b)-i < 3 && bytes.HasPrefix([]byte("!--"), b[i:]):
			return 0, s.short()
		case c == '<' && bytes.HasPrefix(b[i:], []byte("!--")):
			k := bytes.Index(b[i+3:], []byte("-->"))
			if k < 0 {
				return 0, s.short()
			}
			i += 3 + k + 3
		case c == '<':
			depth++
		}
	}
}

// name returns the interned form of raw, a run of name bytes, and
// whether it is an XML name. An ASCII name must start with a letter,
// '_' or ':'; a name with a non-ASCII byte is checked by encoding/xml
// itself, whose tables hold the XML letters, once per distinct name.
func (s *scanner) name(raw []byte) (qname, bool) {
	if q, ok := s.names[string(raw)]; ok {
		return q, true
	}
	if len(raw) == 0 || raw[0] == '-' || raw[0] == '.' || '0' <= raw[0] && raw[0] <= '9' {
		return qname{}, false
	}
	if bytes.IndexFunc(raw, func(r rune) bool { return r >= utf8.RuneSelf }) >= 0 {
		if _, err := xml.NewDecoder(strings.NewReader("<?" + string(raw) + "?>")).RawToken(); err != nil {
			return qname{}, false
		}
	}
	key := string(raw)
	q := qname{raw: key, local: key}
	if i := strings.IndexByte(key, ':'); i >= 0 {
		switch {
		case strings.IndexByte(key[i+1:], ':') >= 0:
			q.local = ""
		case i > 0 && i < len(key)-1:
			q.local = key[i+1:]
		}
	}
	s.names[key] = q
	return q, true
}

func nameEnd(b []byte, i int) int {
	for i < len(b) && nameByte[b[i]] {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// Byte classes of character data. A byte of class 0, or of a class
// the mode leaves out, is copied as it is.
const (
	cAmp   = 1 << iota // '&' starts a reference (text, attribute values)
	cBrack             // ']' may start "]]>" (text)
	cLT                // '<' (attribute values)
	cCR                // '\r', read as '\n', and "\r\n" too
	cCheck             // a control character or a multi-byte character's byte

	textMode  = cAmp | cBrack | cCR | cCheck
	attrMode  = cAmp | cLT | cCR | cCheck
	cdataMode = cCR | cCheck
)

var charClass [256]uint8

// nameByte marks the bytes a name runs over: the ASCII letters and
// digits, '_', ':', '.', '-', and every byte of a multi-byte character.
var nameByte [256]bool

func init() {
	for c := 0; c < 256; c++ {
		nameByte[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
		switch {
		case c == '\t' || c == '\n':
		case c == '\r':
			charClass[c] = cCR
		case c < 0x20 || c >= utf8.RuneSelf:
			charClass[c] = cCheck
		}
	}
	charClass['&'], charClass[']'], charClass['<'] = cAmp, cBrack, cLT
}

// chars checks and decodes one run of character data, mode telling
// which: text, an attribute value or a CDATA section. The five
// predefined entities and character references are replaced, "]]>" is
// refused in text and '<' in attribute values, CR and CRLF become LF,
// and every character must be valid UTF-8 within the XML character
// range. It returns run itself when nothing needed rewriting. cut means
// the input stopped inside the run, so that a reference cut short
// fails with the reader's error. Like encoding/xml, it finds a bad
// reference or markup as it reads and a bad character once the run is
// read, so the first of the former wins over any of the latter.
func (s *scanner) chars(run []byte, mode uint8, cut bool) ([]byte, error) {
	out := s.text[:0]
	rewrite := false
	done := 0 // run[:done] is in out
	var bad rune = -1
	for i := 0; i < len(run); {
		c := run[i]
		switch charClass[c] & mode {
		case 0:
			i++
		case cCheck:
			r, size := utf8.DecodeRune(run[i:])
			if bad < 0 && (size == 1 || illegal(r)) {
				bad = r
			}
			i += size
		case cBrack:
			if i+2 < len(run) && run[i+1] == ']' && run[i+2] == '>' {
				return nil, s.malformed("unescaped ]]> not in CDATA section")
			}
			i++
		case cLT:
			return nil, s.malformed("unescaped < inside quoted string")
		case cCR:
			out = append(append(out, run[done:i]...), '\n')
			i++
			if i < len(run) && run[i] == '\n' {
				i++
			}
			done, rewrite = i, true
		case cAmp:
			r, n := entity(run[i:])
			switch {
			case n == 0 && cut:
				return nil, s.short()
			case n == 0:
				return nil, s.malformed("invalid character entity %s (no semicolon)", run[i:])
			case r < 0:
				return nil, s.malformed("invalid character entity %s", run[i:i+n])
			}
			if bad < 0 && illegal(r) {
				bad = r
			}
			out = utf8.AppendRune(append(out, run[done:i]...), r)
			i += n
			done, rewrite = i, true
		}
	}
	switch {
	case bad == utf8.RuneError:
		return nil, s.malformed("invalid UTF-8")
	case bad >= 0:
		return nil, s.malformed("illegal character code %U", bad)
	case !rewrite:
		return run, nil
	}
	s.text = append(out, run[done:]...)
	return s.text, nil
}

// illegal reports whether r lies outside the XML character range. A
// surrogate is not: a reference to one reads as U+FFFD.
func illegal(r rune) bool {
	return r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF
}

// entity reads the reference at the start of b, which is '&': one of
// the five predefined entities, or a decimal or hexadecimal character
// reference to a code point. It returns the rune and the reference's
// length; r < 0 for a malformed reference, n == 0 if b ends inside it.
func entity(b []byte) (r rune, n int) {
	if len(b) > 1 && b[1] == '#' {
		i, base := 2, 10
		if i < len(b) && b[i] == 'x' {
			i, base = 3, 16
		}
		start, v := i, 0
		for ; i < len(b) && digit(b[i]) < base; i++ {
			v = min(v*base+digit(b[i]), unicode.MaxRune+1)
		}
		switch {
		case i == len(b):
			return 0, 0
		case b[i] != ';' || i == start || v > unicode.MaxRune:
			return -1, i + 1
		}
		return rune(v), i + 1
	}
	i := nameEnd(b, 1)
	if i == len(b) {
		return 0, 0
	}
	if r, ok := entities[string(b[1:i])]; ok && b[i] == ';' {
		return r, i + 1
	}
	return -1, i + 1
}

var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// digit returns c's value as a hexadecimal digit, or 16.
func digit(c byte) int {
	if 'A' <= c && c <= 'F' {
		c += 'a' - 'A'
	}
	if d := strings.IndexByte("0123456789abcdef", c); d >= 0 {
		return d
	}
	return 16
}
