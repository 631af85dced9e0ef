package xpath

import "testing"

// FuzzParse checks that the parser never panics and that every
// accepted query round-trips through its canonical form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"//A/B",
		"//A[/C/F]/B/D",
		"A[/C[/F]/folls::B!/D]",
		"//A[/C/pres::B]",
		"//Storm/following::Tornado",
		"/descendant::Play/child::Act",
		"//*[/x]/y!",
		"//A[",
		"folls::B",
		"//A[//C/folls::B]",
		"//A!!",
		"//A B",
		"]][[",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, input, err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip changed AST: %q -> %q -> %q", input, canon, q.String())
		}
		if q.String() != canon {
			t.Fatalf("canonical form not a fixpoint: %q vs %q", canon, q.String())
		}
		// BuildTree must not panic on any accepted query.
		if tree, err := BuildTree(p); err == nil {
			if tree.Target == nil || len(tree.Nodes) != p.NumSteps() || tree.Path != p {
				t.Fatalf("inconsistent tree for %q", canon)
			}
		}
	})
}
