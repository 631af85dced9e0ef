// Package fixtures is a meta-test over every repo-specific analyzer's
// seeded-violation fixtures. The per-analyzer tests diff diagnostics
// against `// want` comments, which verifies agreement — but agreement
// at zero is silent: delete the seeded violations (or break the
// analyzer so it reports nothing) and those tests still pass. This
// test pins the floor: each analyzer must keep firing on its own
// testdata, with at least as many diagnostics as there are seeded
// expectation comments.
package fixtures

import (
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"xpathest/internal/analysis/allocbudget"
	"xpathest/internal/analysis/analysistest"
	"xpathest/internal/analysis/arenaalias"
	"xpathest/internal/analysis/atomicfield"
	"xpathest/internal/analysis/cowpublish"
	"xpathest/internal/analysis/ctxpropagate"
	"xpathest/internal/analysis/errhttpmap"
	"xpathest/internal/analysis/errtaxonomy"
	"xpathest/internal/analysis/floatdet"
	"xpathest/internal/analysis/goroutinescope"
	"xpathest/internal/analysis/guardedby"
	"xpathest/internal/analysis/maporder"
	"xpathest/internal/analysis/panicpolicy"
	"xpathest/internal/analysis/purity"
)

// fixtureFloors lists every repo-specific analyzer with the minimum
// number of diagnostics its seeded "a" fixture must keep producing.
// The floors are deliberately below the current counts so adding or
// reshuffling cases does not touch this table; hitting a floor means
// the fixture lost its seeded violations or the analyzer went dark.
var fixtureFloors = []struct {
	analyzer *analysis.Analyzer
	minDiags int
}{
	{panicpolicy.Analyzer, 1},
	{errtaxonomy.Analyzer, 1},
	{ctxpropagate.Analyzer, 1},
	{allocbudget.Analyzer, 1},
	{atomicfield.Analyzer, 3},
	{cowpublish.Analyzer, 3},
	{guardedby.Analyzer, 5},
	{goroutinescope.Analyzer, 3},
	// The determinism suite's floors pin its two flagship cases — the
	// pre-fix canonicalEntries pattern and the unsorted-map JSON
	// response — plus headroom from the other seeded sinks.
	{maporder.Analyzer, 4},
	{floatdet.Analyzer, 4},
	{purity.Analyzer, 4},
	{errhttpmap.Analyzer, 2},
	// The columnar-layout floor pins the carve-from-shared-chunk
	// write/retention shapes.
	{arenaalias.Analyzer, 3},
}

func TestSeededViolationsStillReported(t *testing.T) {
	for _, tc := range fixtureFloors {
		tc := tc
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			t.Parallel()
			testdata, err := filepath.Abs(filepath.Join("..", tc.analyzer.Name, "testdata"))
			if err != nil {
				t.Fatal(err)
			}

			wants := analysistest.WantComments(t, testdata, "a")
			if wants == 0 {
				t.Fatalf("%s: fixture has no `// want` comments left: the seeded violations are gone", tc.analyzer.Name)
			}

			diags := analysistest.Diagnostics(t, testdata, tc.analyzer, "a")
			if len(diags) < tc.minDiags {
				t.Errorf("%s: %d diagnostics on seeded fixture, floor is %d: analyzer regressed toward silence", tc.analyzer.Name, len(diags), tc.minDiags)
			}
			if len(diags) < wants {
				t.Errorf("%s: %d diagnostics but %d seeded `// want` comments: some violations are no longer reported", tc.analyzer.Name, len(diags), wants)
			}
		})
	}
}
