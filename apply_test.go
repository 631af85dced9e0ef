package xpathest

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

const applyTestDoc = `<r><a><c/><d/></a><a><c/></a><a><c/></a><b><c/></b></r>`

func saveBytes(t *testing.T, s *Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// rebuiltSummary round-trips the edited document through XML and
// builds a summary from scratch — the oracle side of Apply's contract.
func rebuiltSummary(t *testing.T, d *Document, opts SummaryOptions) (*Document, *Summary) {
	t.Helper()
	var xml bytes.Buffer
	if err := d.WriteXML(&xml, false); err != nil {
		t.Fatalf("write xml: %v", err)
	}
	fresh, err := ParseDocumentString(xml.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	return fresh, fresh.BuildSummary(opts)
}

func TestApplyMatchesRebuildBitForBit(t *testing.T) {
	for _, opts := range []SummaryOptions{{}, {PVariance: 1, OVariance: 2}, {Exact: true}} {
		doc, err := ParseDocumentString(applyTestDoc)
		if err != nil {
			t.Fatal(err)
		}
		sum := doc.BuildSummary(opts)
		res, err := sum.Apply(EditScript{Ops: []EditOp{
			{Insert: true, Loc: []int{1}, Index: 1, XML: "<d></d>"},
			{Loc: []int{3}},
			{Insert: true, Loc: []int{}, Index: 0, XML: "<b><c></c></b>"},
		}})
		if err != nil {
			t.Fatalf("opts %+v: apply: %v", opts, err)
		}
		_, want := rebuiltSummary(t, doc, opts)
		if got, wantB := saveBytes(t, res.Summary), saveBytes(t, want); !bytes.Equal(got, wantB) {
			t.Fatalf("opts %+v: applied summary bytes differ from rebuild", opts)
		}
		// Estimates must agree to the last bit, not approximately.
		for _, q := range []string{"//c", "/r/a/c", "//a[/c]", "/r/a/c[folls::d]", "/r/a[foll::b]"} {
			g, err1 := res.Summary.Estimate(q)
			w, err2 := want.Estimate(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("estimate %s: %v / %v", q, err1, err2)
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("opts %+v: estimate %s: apply %v, rebuild %v", opts, q, g, w)
			}
		}
	}
}

// TestApplyWhileEstimating estimates on a summary from several
// goroutines while Apply edits its document. The fast route labels the
// inserted subtree over a clone that shares pid instances with the
// summary being read, so it must not write to them (run under -race).
func TestApplyWhileEstimating(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	// The answers come from a twin, so the goroutines' first estimates
	// are cold and read the pids themselves.
	twin, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"//c", "//d", "/r/a[/c]/d", "/r/a/c[folls::d]"}
	want := make([]float64, len(queries))
	for i, q := range queries {
		if want[i], err = twin.BuildSummary(SummaryOptions{}).Estimate(q); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range queries {
					if v, err := sum.Estimate(q); err != nil || v != want[i] {
						t.Errorf("%s = (%v, %v) during Apply, want %v", q, v, err, want[i])
						return
					}
				}
			}
		}()
	}
	// An inserted <a><c/><d/></a> reuses the pids of the first a's
	// children: the labeler ors a shared instance into its accumulator.
	res, err := sum.Apply(EditScript{Ops: []EditOp{{Insert: true, Loc: []int{}, Index: 0, XML: "<a><c/><d/></a>"}}})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.FastOps != 1 {
		t.Fatalf("Apply took %d fast ops, want 1", res.FastOps)
	}
}

func TestApplyInverseRoundTrip(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	before := saveBytes(t, sum)
	sc := EditScript{Ops: []EditOp{
		{Insert: true, Loc: []int{1}, Index: 1, XML: "<d></d>"},
		{Loc: []int{2}},
	}}
	res, err := sum.Apply(sc)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if bytes.Equal(before, saveBytes(t, res.Summary)) {
		t.Fatal("edit had no effect")
	}
	back, err := res.Summary.Apply(res.Inverse)
	if err != nil {
		t.Fatalf("apply inverse: %v", err)
	}
	if !bytes.Equal(before, saveBytes(t, back.Summary)) {
		t.Fatal("inverse did not restore the original summary bytes")
	}
}

func TestApplyAdvancesEpochAndRejectsStale(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	if doc.Epoch() != 0 || sum.Epoch() != 0 {
		t.Fatalf("fresh epochs = %d/%d, want 0/0", doc.Epoch(), sum.Epoch())
	}
	res, err := sum.Apply(EditScript{Ops: []EditOp{{Loc: []int{2}}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if doc.Epoch() != 1 || res.Summary.Epoch() != 1 {
		t.Fatalf("post-apply epochs = %d/%d, want 1/1", doc.Epoch(), res.Summary.Epoch())
	}
	// The superseded summary must refuse further edits.
	if _, err := sum.Apply(EditScript{Ops: []EditOp{{Loc: []int{1}}}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("stale apply: want ErrInvalidArgument, got %v", err)
	}
	// The current one keeps working.
	if _, err := res.Summary.Apply(EditScript{Ops: []EditOp{{Loc: []int{1}}}}); err != nil {
		t.Fatalf("current apply: %v", err)
	}
	if doc.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", doc.Epoch())
	}
}

func TestApplyDocumentQueriesAfterEdit(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	// Force the lazy evaluator and executor into existence so Apply
	// must invalidate both.
	if _, err := doc.ExactCount("//c"); err != nil {
		t.Fatal(err)
	}
	if m, err := doc.Matches("//c"); err != nil || len(m) != 4 {
		t.Fatalf("pre-edit //c: %d matches, %v; want 4", len(m), err)
	}
	if _, err := doc.IndexedCount("//c"); err != nil {
		t.Fatal(err)
	}
	if _, err = sum.Apply(EditScript{Ops: []EditOp{
		{Insert: true, Loc: []int{0}, Index: 2, XML: "<c></c>"},
	}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	exact, err := doc.ExactCount("//c")
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := doc.IndexedCount("//c")
	if err != nil {
		t.Fatal(err)
	}
	m, err := doc.Matches("//c")
	if err != nil {
		t.Fatal(err)
	}
	if exact != 5 || indexed != 5 || len(m) != 5 {
		t.Fatalf("post-edit //c: exact %d indexed %d matches %d, want 5/5/5", exact, indexed, len(m))
	}
}

// TestExactStructuresAreLazy checks that loading, summarizing, saving
// and editing build no exact evaluator or executor: the first exact
// call builds the evaluator, and Apply drops it.
func TestExactStructuresAreLazy(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	built := func(when string, wantEval bool) {
		t.Helper()
		doc.execMu.Lock()
		ev, ex := doc.ev != nil, doc.exec != nil
		doc.execMu.Unlock()
		if ev != wantEval || ex {
			t.Fatalf("%s: evaluator built %v, executor built %v; want %v, false", when, ev, ex, wantEval)
		}
	}
	built("after parse", false)
	sum := doc.BuildSummary(SummaryOptions{})
	built("after build", false)
	saveBytes(t, sum)
	built("after save", false)
	res, err := sum.Apply(EditScript{Ops: []EditOp{{Insert: true, Loc: []int{0}, Index: 2, XML: "<c></c>"}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	built("after apply", false)
	if _, err := doc.ExactCount("//c"); err != nil {
		t.Fatal(err)
	}
	built("after ExactCount", true)
	if _, err := res.Summary.Apply(EditScript{Ops: []EditOp{{Loc: []int{0, 2}}}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	built("after a second apply", false)
}

func TestApplyRejectsDocumentlessSummary(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.BuildSummary(SummaryOptions{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Apply(EditScript{Ops: []EditOp{{Loc: []int{0}}}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("want ErrInvalidArgument, got %v", err)
	}
}

func TestApplyBadScript(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	cases := []EditScript{
		{Ops: []EditOp{{Insert: true, Loc: []int{0}, XML: "<not-xml"}}},
		{Ops: []EditOp{{Loc: []int{}}}},                // delete root
		{Ops: []EditOp{{Loc: []int{17}}}},              // bad loc
		{Ops: []EditOp{{Insert: true, Loc: []int{0}}}}, // empty payload
	}
	for i, sc := range cases {
		if _, err := sum.Apply(sc); err == nil {
			t.Fatalf("case %d: bad script applied cleanly", i)
		}
	}
	// Failed applies must not have advanced the epoch (nothing mutated).
	if doc.Epoch() != 0 {
		t.Fatalf("epoch = %d after rejected scripts, want 0", doc.Epoch())
	}
}

func TestEditScriptCodecRoundTrip(t *testing.T) {
	sc := EditScript{Ops: []EditOp{
		{Insert: true, Loc: []int{0, 1}, Index: 2, XML: "<a><b>hi</b><c></c></a>"},
		{Loc: []int{3}},
	}}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeEditScript(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Ops) != 2 || !dec.Ops[0].Insert || dec.Ops[1].Insert {
		t.Fatalf("decoded %+v", dec)
	}
	if !strings.Contains(dec.Ops[0].XML, "<b>hi</b>") {
		t.Fatalf("insert payload lost: %q", dec.Ops[0].XML)
	}
	if _, err := DecodeEditScript(bytes.NewReader(buf.Bytes()[:buf.Len()-2]), 0); err == nil {
		t.Fatal("truncated script decoded cleanly")
	}
}
