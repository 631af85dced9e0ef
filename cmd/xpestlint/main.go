// Command xpestlint is the project's static analysis gate. It bundles
// the repo-specific analyzers — the policy suite (panicpolicy,
// errtaxonomy, ctxpropagate, allocbudget), the CFG-based concurrency
// suite (atomicfield, cowpublish, guardedby, goroutinescope), the
// interprocedural determinism/purity suite (maporder, floatdet,
// purity, errhttpmap), and the columnar-layout protocol analyzer
// (arenaalias) — with the standard vet suite, and runs in two modes:
//
//	xpestlint ./...                     # standalone: re-execs go vet -vettool=itself
//	go vet -vettool=$(pwd)/xpestlint    # driver mode: unitchecker protocol
//
// The repo-specific analyzers ship with default scopes matching the
// invariants in docs/STATIC_ANALYSIS.md; override per run with
// -panicpolicy.scope etc. An empty scope means "every package".
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"golang.org/x/tools/go/analysis/passes/appends"
	"golang.org/x/tools/go/analysis/passes/assign"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/bools"
	"golang.org/x/tools/go/analysis/passes/composite"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/defers"
	"golang.org/x/tools/go/analysis/passes/errorsas"
	"golang.org/x/tools/go/analysis/passes/httpresponse"
	"golang.org/x/tools/go/analysis/passes/ifaceassert"
	"golang.org/x/tools/go/analysis/passes/loopclosure"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/nilfunc"
	"golang.org/x/tools/go/analysis/passes/printf"
	"golang.org/x/tools/go/analysis/passes/shift"
	"golang.org/x/tools/go/analysis/passes/sigchanyzer"
	"golang.org/x/tools/go/analysis/passes/stdmethods"
	"golang.org/x/tools/go/analysis/passes/stringintconv"
	"golang.org/x/tools/go/analysis/passes/structtag"
	"golang.org/x/tools/go/analysis/passes/tests"
	"golang.org/x/tools/go/analysis/passes/unmarshal"
	"golang.org/x/tools/go/analysis/passes/unreachable"
	"golang.org/x/tools/go/analysis/passes/unusedresult"

	"xpathest/internal/analysis/allocbudget"
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

// Default scopes for the repo-specific analyzers. These encode which
// invariants bind which packages; docs/STATIC_ANALYSIS.md is the prose
// version and must be kept in sync.
var defaultScopes = map[*analysis.Analyzer]string{
	// Packages that parse or decode untrusted input must not panic.
	panicpolicy.Analyzer: join(
		"internal/xpath", "internal/pathenc", "internal/pidtree",
		"internal/summaryio", "internal/xmltree", "internal/histogram",
	),
	// Every package behind the root API wraps guard sentinels.
	errtaxonomy.Analyzer: "xpathest," + join(
		"internal/xpath", "internal/pathenc", "internal/pidtree",
		"internal/summaryio", "internal/xmltree", "internal/stats",
		"internal/histogram", "internal/core", "internal/eval",
		"internal/xsketch", "internal/poshist", "internal/interval",
		"internal/guard", "internal/summarystore",
	),
	// Context discipline binds all library code (package main exempt).
	ctxpropagate.Analyzer: "",
	// Allocation budgets bind the summary decoder and the columnar
	// kernel's arena builders (internal/core, internal/stats,
	// internal/bitset): both turn length-prefixed or entry-counted
	// input into slab allocations and must size them against a checked
	// budget, not a raw count.
	allocbudget.Analyzer: join(
		"internal/summaryio", "internal/core", "internal/stats",
		"internal/bitset",
	),
	// The concurrency suite binds everywhere: the lock-free kernel and
	// the server share the same publication and locking protocols, and
	// an unguarded access anywhere can reach shared state.
	atomicfield.Analyzer:    "",
	cowpublish.Analyzer:     "",
	guardedby.Analyzer:      "",
	goroutinescope.Analyzer: "",
	// The columnar-layout protocol binds everywhere too: arenaalias is
	// the slab-contents half of cowpublish's publication freeze.
	arenaalias.Analyzer: "",
	// Map-iteration order feeding float accumulation or serialized
	// output breaks the bit-for-bit estimate invariant anywhere — the
	// server's JSON responses as much as the kernel.
	maporder.Analyzer: "",
	// The narrow float-reduction check binds the estimator and summary
	// packages, where difftest's four-path Float64bits identity reigns.
	floatdet.Analyzer: join(
		"internal/core", "internal/stats", "internal/histogram",
		"internal/poshist", "internal/xsketch",
	),
	// Estimates are functions of summary and query only: no clock,
	// global rand, or environment in estimate/summary-build code.
	// Server, chaos, and cmd stay out of scope — they own those reads.
	purity.Analyzer: "xpathest," + join(
		"internal/core", "internal/stats", "internal/histogram",
		"internal/poshist", "internal/xsketch", "internal/pathenc",
		"internal/pidtree", "internal/summaryio", "internal/xmltree",
		"internal/xpath", "internal/interval", "internal/eval",
		"internal/bitset",
	),
	// Every guard sentinel needs exactly one HTTP mapping arm in the
	// server's statusFor.
	errhttpmap.Analyzer: join("internal/server"),
}

func join(pkgs ...string) string {
	for i, p := range pkgs {
		pkgs[i] = "xpathest/" + p
	}
	return strings.Join(pkgs, ",")
}

func suite() []*analysis.Analyzer {
	custom := []*analysis.Analyzer{
		panicpolicy.Analyzer,
		errtaxonomy.Analyzer,
		ctxpropagate.Analyzer,
		allocbudget.Analyzer,
		atomicfield.Analyzer,
		cowpublish.Analyzer,
		arenaalias.Analyzer,
		guardedby.Analyzer,
		goroutinescope.Analyzer,
		maporder.Analyzer,
		floatdet.Analyzer,
		purity.Analyzer,
		errhttpmap.Analyzer,
	}
	for _, a := range custom {
		if scope, ok := defaultScopes[a]; ok && scope != "" {
			if err := a.Flags.Set("scope", scope); err != nil {
				fmt.Fprintf(os.Stderr, "xpestlint: setting %s.scope: %v\n", a.Name, err)
				os.Exit(1)
			}
		}
	}
	return append(custom,
		appends.Analyzer,
		assign.Analyzer,
		atomic.Analyzer,
		bools.Analyzer,
		composite.Analyzer,
		copylock.Analyzer,
		defers.Analyzer,
		errorsas.Analyzer,
		httpresponse.Analyzer,
		ifaceassert.Analyzer,
		loopclosure.Analyzer,
		lostcancel.Analyzer,
		nilfunc.Analyzer,
		printf.Analyzer,
		shift.Analyzer,
		sigchanyzer.Analyzer,
		stdmethods.Analyzer,
		stringintconv.Analyzer,
		structtag.Analyzer,
		tests.Analyzer,
		unmarshal.Analyzer,
		unreachable.Analyzer,
		unusedresult.Analyzer,
	)
}

func main() {
	if driverMode(os.Args[1:]) {
		unitchecker.Main(suite()...)
		return // unreachable; Main exits
	}
	os.Exit(standalone(os.Args[1:]))
}

// driverMode reports whether the process was invoked under the go vet
// -vettool protocol (-V=full / -flags handshakes, a *.cfg unit, or the
// unitchecker help subcommand) rather than directly by a person.
func driverMode(args []string) bool {
	for _, a := range args {
		if a == "-flags" || a == "help" ||
			strings.HasPrefix(a, "-V=") || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

// standalone re-execs the binary through go vet, which owns package
// loading; unitchecker itself cannot load packages from source. Any
// leading -name.flag arguments and package patterns are forwarded;
// with no patterns, ./... is checked.
func standalone(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpestlint: locating own executable: %v\n", err)
		return 1
	}
	vetArgs := append([]string{"vet", "-vettool=" + self}, args...)
	if len(args) == 0 {
		vetArgs = append(vetArgs, "./...")
	}
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if exit, ok := err.(*exec.ExitError); ok {
			return exit.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "xpestlint: running go vet: %v\n", err)
		return 1
	}
	return 0
}
