package xpathest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/summaryio"
)

const smallXML = `<site><people><person><name>a</name></person><person><name>b</name></person></people><items><item/><item/></items></site>`

func ctxTestDoc(t testing.TB) *Document {
	t.Helper()
	d, err := ParseDocumentString(smallXML)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func savedSummary(t testing.TB) []byte {
	t.Helper()
	s := ctxTestDoc(t).BuildSummary(SummaryOptions{})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routeErr is the error one route of an XML input returned.
type routeErr struct {
	route string
	err   error
}

// xmlRoutes runs one XML input through both routes a document takes
// into the system — ParseDocumentContext, and SummarizeStreamContext's
// two streaming passes — and returns each route's error.
func xmlRoutes(ctx context.Context, xml string, lim Limits) []routeErr {
	_, perr := ParseDocumentContext(ctx, strings.NewReader(xml), lim)
	_, serr := SummarizeStreamContext(ctx, func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(xml)), nil
	}, SummaryOptions{}, lim)
	return []routeErr{{"parse", perr}, {"stream", serr}}
}

func TestParseDocumentContextLimits(t *testing.T) {
	deep := strings.Repeat("<a>", 40) + "x" + strings.Repeat("</a>", 40)
	for _, c := range []struct {
		name string
		xml  string
		lim  Limits
		want error
	}{
		{"depth", deep, Limits{MaxDepth: 8}, ErrLimitExceeded},
		{"elements", smallXML, Limits{MaxElements: 3}, ErrLimitExceeded},
		{"bytes", smallXML, Limits{MaxDocumentBytes: 16}, ErrLimitExceeded},
		// Zero limits admit everything the non-Context API admits.
		{"unlimited", deep, Limits{}, nil},
	} {
		for _, r := range xmlRoutes(context.Background(), c.xml, c.lim) {
			if !errors.Is(r.err, c.want) {
				t.Errorf("%s via %s: got %v, want %v", c.name, r.route, r.err, c.want)
			}
		}
	}
}

func TestParseDocumentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A document long enough to cross the token-loop check cadence.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<a/>")
	}
	sb.WriteString("</r>")
	for _, r := range xmlRoutes(ctx, sb.String(), Limits{}) {
		if !errors.Is(r.err, ErrCanceled) {
			t.Errorf("via %s: got %v, want ErrCanceled", r.route, r.err)
		}
	}
}

func TestContextVariantsMatchPlainAPI(t *testing.T) {
	d := ctxTestDoc(t)
	ctx := context.Background()
	s, err := d.BuildSummaryContext(ctx, SummaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const q = "//person/name"
	want, err := d.BuildSummary(SummaryOptions{}).Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.EstimateContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("EstimateContext = %v, Estimate = %v", got, want)
	}
	exact, err := d.ExactCountContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.ExactCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if exact != plain {
		t.Fatalf("ExactCountContext = %d, ExactCount = %d", exact, plain)
	}
}

func TestExactCountContextCanceled(t *testing.T) {
	d := ctxTestDoc(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The evaluator polls every 1024 candidate tests; a tiny document
	// finishes before the first poll, which is fine — the entry check in
	// ParseDocumentContext-style APIs is what a server relies on for
	// small inputs. Assert only that cancellation never yields a wrong
	// success silently: either ErrCanceled or the exact answer.
	n, err := d.ExactCountContext(ctx, "//person")
	if err == nil {
		if plain, _ := d.ExactCount("//person"); n != plain {
			t.Fatalf("canceled count %d disagrees with exact %d", n, plain)
		}
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled or success", err)
	}
}

func TestEstimateContextMalformedQuery(t *testing.T) {
	s := ctxTestDoc(t).BuildSummary(SummaryOptions{})
	_, err := s.EstimateContext(context.Background(), "///[[[")
	if !errors.Is(err, ErrMalformedQuery) {
		t.Fatalf("got %v, want ErrMalformedQuery", err)
	}
}

// repeatedPidStream is a well-formed summary stream whose pid
// dictionary lists its first pid twice: a copy ahead of the instance
// the histograms reference. Encode never writes one. The document has
// 3 paths and 5 distinct pids, so the copy stays under the decoder's
// 2^3-1 pid bound and the stream decodes; only loading can reject it.
func repeatedPidStream(t testing.TB) []byte {
	t.Helper()
	d, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.BuildSummary(SummaryOptions{})
	distinct := s.lab.Distinct()
	dict := append([]*bitset.Bitset{distinct[0].Clone()}, distinct...)
	var buf bytes.Buffer
	if err := summaryio.Encode(&buf, s.lab.Table, dict, s.ps, s.os); err != nil {
		t.Fatal(err)
	}
	if _, err := summaryio.Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("repeated-pid stream does not decode: %v", err)
	}
	return buf.Bytes()
}

// TestReadSummaryCorrupt is the table of corrupt streams: ReadSummary
// and ReadSummaryFileContext return an error wrapping
// ErrCorruptSummary — not a panic and not a silent zero-value summary
// — for truncated streams, flipped checksum bytes, version-mismatch
// headers, and a pid dictionary that lists one pid twice.
func TestReadSummaryCorrupt(t *testing.T) {
	good := savedSummary(t)

	flipChecksum := bytes.Clone(good)
	flipChecksum[len(flipChecksum)-1] ^= 0x80

	badVersion := bytes.Clone(good)
	binary.LittleEndian.PutUint16(badVersion[5:], 0x7FFF)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty stream", nil},
		{"truncated header", good[:3]},
		{"truncated mid-payload", good[:len(good)/2]},
		{"truncated checksum", good[:len(good)-2]},
		{"flipped checksum byte", flipChecksum},
		{"version mismatch", badVersion},
		{"pid listed twice", repeatedPidStream(t)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ReadSummary(bytes.NewReader(c.data))
			if err == nil {
				t.Fatalf("corrupt stream accepted: %+v", s)
			}
			if !errors.Is(err, ErrCorruptSummary) {
				t.Fatalf("error %v does not wrap ErrCorruptSummary", err)
			}
			s, err = ReadSummaryFileContext(context.Background(), c.data, DefaultLimits())
			if err == nil {
				t.Fatalf("corrupt file accepted: %+v", s)
			}
			if !errors.Is(err, ErrCorruptSummary) {
				t.Fatalf("file error %v does not wrap ErrCorruptSummary", err)
			}
		})
	}

	// And the genuine stream still round-trips.
	s, err := ReadSummary(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate("//person"); err != nil {
		t.Fatal(err)
	}
}

func TestReadSummaryContextLimit(t *testing.T) {
	good := savedSummary(t)
	lim := Limits{MaxSummaryBytes: 8}
	if _, err := ReadSummaryContext(context.Background(), bytes.NewReader(good), lim); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("summary byte limit not enforced")
	}
	if _, err := ReadSummaryContext(context.Background(), bytes.NewReader(good), DefaultLimits()); err != nil {
		t.Fatalf("genuine stream under default limits: %v", err)
	}
}

func TestSummarizeStreamContext(t *testing.T) {
	opener := func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(smallXML)), nil
	}
	s, err := SummarizeStreamContext(context.Background(), opener, SummaryOptions{}, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate("//item"); err != nil {
		t.Fatal(err)
	}
	// Limits bite in the first streaming pass.
	_, err = SummarizeStreamContext(context.Background(), opener, SummaryOptions{}, Limits{MaxElements: 2})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("got %v, want ErrLimitExceeded", err)
	}
	// A negative threshold is an argument error on the plain route too:
	// it shares the Context route's body, Validate included.
	if _, err := SummarizeStream(opener, SummaryOptions{OVariance: -1}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative variance: got %v, want ErrInvalidArgument", err)
	}
}
