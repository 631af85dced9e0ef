package pathenc

import (
	"bytes"
	"errors"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/xmltree"
)

func buildEdit(t *testing.T, s string) (*xmltree.Document, *Labeling) {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	return doc, lab
}

// pidsByPreorder snapshots every node's pid string in document order.
func pidsByPreorder(doc *xmltree.Document, l *Labeling) []string {
	var out []string
	doc.Walk(func(n *xmltree.Node) bool {
		out = append(out, l.PidOf(n).String())
		return true
	})
	return out
}

// TestEditMaintenanceFlow runs the full labeling-maintenance sequence
// (CloneForEdit, RelabelSubtree, RecomputeAncestors, Rebind, Renumber)
// for a subtree splice and demands node-for-node pid agreement with a
// from-scratch Build over the edited document — while the pre-edit
// labeling stays untouched.
func TestEditMaintenanceFlow(t *testing.T) {
	doc, lab := buildEdit(t, `<r><a><b></b></a><a><b></b><c></c></a></r>`)
	before := pidsByPreorder(doc, lab)

	clone := lab.CloneForEdit()
	sub := xmltree.CloneSubtree(doc.Root.Children[0])
	if err := doc.Attach(doc.Root, 2, sub); err != nil {
		t.Fatal(err)
	}
	overrides := map[*xmltree.Node]*bitset.Bitset{}
	if err := clone.RelabelSubtree(sub, overrides); err != nil {
		t.Fatalf("RelabelSubtree: %v", err)
	}
	if _, ok := overrides[sub]; !ok {
		t.Fatal("RelabelSubtree did not record the subtree root")
	}
	if _, err := clone.RecomputeAncestors(doc.Root, overrides); err != nil {
		t.Fatalf("RecomputeAncestors: %v", err)
	}
	clone.Rebind(doc, overrides)
	doc.Renumber()

	var buf bytes.Buffer
	if err := doc.WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	doc2, fresh := buildEdit(t, buf.String())
	got := pidsByPreorder(doc, clone)
	want := pidsByPreorder(doc2, fresh)
	if len(got) != len(want) {
		t.Fatalf("maintained %d pids, rebuild %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("node %d: maintained pid %s, rebuild %s", i, got[i], want[i])
		}
	}
	if clone.NumDistinct() != fresh.NumDistinct() {
		t.Errorf("maintained %d distinct pids, rebuild %d", clone.NumDistinct(), fresh.NumDistinct())
	}

	// The splice duplicated existing paths: the pre-edit labeling must
	// not have seen any of it. (Renumber changed Ord values, so compare
	// against a rebuild over the original serialization.)
	origDoc, origLab := buildEdit(t, `<r><a><b></b></a><a><b></b><c></c></a></r>`)
	if ba := pidsByPreorder(origDoc, origLab); len(ba) != len(before) {
		t.Fatalf("original labeling changed shape")
	}
	for i, p := range pidsByPreorder(origDoc, lab) {
		if p != before[i] {
			t.Errorf("pre-edit labeling node %d changed: %s != %s", i, p, before[i])
		}
	}
}

// TestRecomputeAncestorsPropagates deletes a subtree so an ancestor's
// pid genuinely changes, and checks the change list plus the
// stop-at-unchanged contract.
func TestRecomputeAncestorsPropagates(t *testing.T) {
	doc, lab := buildEdit(t, `<r><a><b></b><c></c></a><a><b></b></a></r>`)
	clone := lab.CloneForEdit()
	// Delete the only <c>: its parent <a> loses the r/a/c bit, and the
	// root loses it too — two changes.
	target := doc.Root.Children[0].Children[1]
	parent := target.Parent
	if err := doc.Detach(target); err != nil {
		t.Fatal(err)
	}
	overrides := map[*xmltree.Node]*bitset.Bitset{}
	changes, err := clone.RecomputeAncestors(parent, overrides)
	if err != nil {
		t.Fatalf("RecomputeAncestors: %v", err)
	}
	if len(changes) != 2 {
		t.Fatalf("%d pid changes, want 2 (parent and root)", len(changes))
	}
	for _, ch := range changes {
		if ch.Old == ch.New {
			t.Errorf("change for %q reports identical pids", ch.Node.Tag)
		}
		if overrides[ch.Node] != ch.New {
			t.Errorf("change for %q not mirrored in overrides", ch.Node.Tag)
		}
	}

	// A no-op recompute (nothing changed) must stop immediately.
	doc2, lab2 := buildEdit(t, `<r><a><b></b></a><a><b></b></a></r>`)
	clone2 := lab2.CloneForEdit()
	ov2 := map[*xmltree.Node]*bitset.Bitset{}
	ch2, err := clone2.RecomputeAncestors(doc2.Root.Children[0], ov2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch2) != 0 || len(ov2) != 0 {
		t.Errorf("unchanged recompute produced %d changes, %d overrides", len(ch2), len(ov2))
	}
}

// TestRelabelSubtreeUnknownPath pins the fallback trigger: a subtree
// introducing a root-to-leaf path absent from the encoding table fails
// with ErrPathUnknown.
func TestRelabelSubtreeUnknownPath(t *testing.T) {
	doc, lab := buildEdit(t, `<r><a></a></r>`)
	clone := lab.CloneForEdit()
	zdoc, err := xmltree.ParseString(`<z><a></a></z>`)
	if err != nil {
		t.Fatal(err)
	}
	sub := zdoc.Root
	if err := doc.Attach(doc.Root, 1, sub); err != nil {
		t.Fatal(err)
	}
	err = clone.RelabelSubtree(sub, map[*xmltree.Node]*bitset.Bitset{})
	if !errors.Is(err, ErrPathUnknown) {
		t.Fatalf("RelabelSubtree = %v, want ErrPathUnknown", err)
	}
}

// TestRecomputeAncestorsUnknownPath deletes the only child of an
// internal node: the node becomes a leaf whose own path was never a
// root-to-leaf path, so maintenance must refuse with ErrPathUnknown.
func TestRecomputeAncestorsUnknownPath(t *testing.T) {
	doc, lab := buildEdit(t, `<r><a><b></b></a></r>`)
	clone := lab.CloneForEdit()
	a := doc.Root.Children[0]
	if err := doc.Detach(a.Children[0]); err != nil {
		t.Fatal(err)
	}
	_, err := clone.RecomputeAncestors(a, map[*xmltree.Node]*bitset.Bitset{})
	if !errors.Is(err, ErrPathUnknown) {
		t.Fatalf("RecomputeAncestors = %v, want ErrPathUnknown", err)
	}
}

// TestCloneForEditShares pins what the clone shares (table, interned
// instances) and what it owns (interning maps, pid slice).
func TestCloneForEditShares(t *testing.T) {
	doc, lab := buildEdit(t, `<r><a><b></b></a></r>`)
	c := lab.CloneForEdit()
	if c.Table != lab.Table {
		t.Error("clone must share the encoding table")
	}
	if c.NumDistinct() != lab.NumDistinct() {
		t.Errorf("clone distinct %d != %d", c.NumDistinct(), lab.NumDistinct())
	}
	doc.Walk(func(n *xmltree.Node) bool {
		if c.PidOf(n) != lab.PidOf(n) {
			t.Errorf("node %q: clone pid instance differs", n.Tag)
		}
		return true
	})
	// Interning a novel pid into the clone must not grow the original.
	novel := bitset.New(lab.Table.NumPaths())
	c.intern(novel)
	if c.NumDistinct() != lab.NumDistinct()+1 {
		t.Errorf("clone distinct %d after intern, want %d", c.NumDistinct(), lab.NumDistinct()+1)
	}
}
