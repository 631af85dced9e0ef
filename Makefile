# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned tool versions. x/tools is vendored (see vendor/modules.txt and
# docs/STATIC_ANALYSIS.md); govulncheck is fetched on demand by `make
# vuln` and is advisory only.
XTOOLS_VERSION      = v0.28.1-0.20250131145412-98746475647e
GOVULNCHECK_VERSION = v1.1.4

XPESTLINT = bin/xpestlint

.PHONY: all build test vet lint lint-budget lint-fixtures lint-audit lint-audit-check perfgate perfbench-vet vuln race race-hot cover bench bench-json bench-check fuzz fuzz-smoke difftest-smoke difftest-edits difftest-nightly difftest-nightly-edits chaos chaos-smoke ci experiments examples clean

all: build vet lint test

# What .github/workflows/ci.yml runs; keep the two in sync.
# lint-budget runs the same vet invocation as lint, timed. A separate
# `vet` step would be redundant: xpestlint bundles the standard vet
# suite, so the lint steps already run it (make vet stays for local
# use).
ci: build perfbench-vet lint-budget lint-fixtures lint-audit-check perfgate race-hot race fuzz-smoke difftest-smoke difftest-edits chaos-smoke cover

build:
	$(GO) build ./...

# perfbench/ is a separate module over the internal packages
# (core, xpath, histogram, stats, server), so `go build ./...` never
# compiles it. Vet it and compile its tests, running none, so an
# internal signature change fails here instead of in a benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet ./... && $(GO) test -run '^$$' .

vet:
	$(GO) vet ./...

# Project-invariant static analysis: the custom analyzers of
# internal/analysis plus the standard vet suite, driven through
# `go vet -vettool` so results are cached per package like any build.
# See docs/STATIC_ANALYSIS.md for the invariants and the suppression
# mechanism.
lint: $(XPESTLINT)
	$(GO) vet -vettool=$(CURDIR)/$(XPESTLINT) ./...

$(XPESTLINT): FORCE
	$(GO) build -o $(XPESTLINT) ./cmd/xpestlint

FORCE:

# Wall-clock budget for the full lint suite. The interprocedural
# determinism analyzers do real dataflow work, so this guards against
# an analyzer (or a future fixpoint bug) regressing into pathological
# cost. Fully cold full-suite baseline at the time of writing (empty
# build cache, the worst case CI hits): ~30s on a dev machine; the
# budget is 2× that. A warm go-vet cache makes reruns near-instant, so
# the budget only bites on the cold path.
LINT_BUDGET_SECONDS ?= 60
lint-budget: $(XPESTLINT)
	@start=$$(date +%s); \
	$(GO) vet -vettool=$(CURDIR)/$(XPESTLINT) ./... || exit 1; \
	end=$$(date +%s); took=$$((end - start)); \
	echo "lint wall clock: $${took}s (budget: $(LINT_BUDGET_SECONDS)s)"; \
	if [ $$took -gt $(LINT_BUDGET_SECONDS) ]; then \
		echo "lint exceeded its wall-clock budget: $${took}s > $(LINT_BUDGET_SECONDS)s"; \
		exit 1; \
	fi

# Compiler-diagnostic performance gate (docs/STATIC_ANALYSIS.md,
# "Performance invariants"): build the hot packages with -m=2 and
# check_bce debugging and diff the diagnostics against the pins in
# perf-manifest.txt — deinlined hot helpers, newly escaping
# parameters, and bounds checks back inside arena loops fail here at
# build time, before they cost ns/op in bench-check. Budgeted like
# lint-budget: the go build cache replays diagnostics, so a warm run
# is milliseconds and the budget only bites on the cold path.
PERFGATE_BUDGET_SECONDS ?= 60
perfgate:
	$(GO) build -o bin/perfgate ./cmd/perfgate
	@start=$$(date +%s); \
	bin/perfgate -manifest perf-manifest.txt || exit 1; \
	end=$$(date +%s); took=$$((end - start)); \
	echo "perfgate wall clock: $${took}s (budget: $(PERFGATE_BUDGET_SECONDS)s)"; \
	if [ $$took -gt $(PERFGATE_BUDGET_SECONDS) ]; then \
		echo "perfgate exceeded its wall-clock budget: $${took}s > $(PERFGATE_BUDGET_SECONDS)s"; \
		exit 1; \
	fi

# Self-test of the analyzer suite: each analyzer's unit tests plus the
# fixtures meta-test, which fails if any analyzer stops firing on its
# own seeded violations (agreement with `// want` comments alone is
# silent at zero findings).
lint-fixtures:
	$(GO) test ./internal/analysis/...

# Regenerate the checked-in inventory of //lint:ignore suppressions.
# Every suppression outside the analyzers' own code and fixtures is a
# deliberate, reviewed exception to a documented invariant; the
# inventory makes suppression growth visible in diffs instead of
# scattered across the tree. The analyzers enforce that each directive
# carries a reason, so the audit lines are self-explanatory.
# //perf:exempt directives (perfgate's escape hatch) are swept into a
# trailing perf-ignores section of the same inventory, excluding
# cmd/perfgate itself (its source and fixtures mention the directive).
lint-audit:
	@grep -rno '//lint:ignore.*' --include='*.go' \
		--exclude-dir=vendor --exclude-dir=testdata --exclude-dir=analysis \
		--exclude-dir=perfgate . \
		| sed 's|^\./||' | LC_ALL=C sort > lint-ignores.txt
	@echo "# perf-ignores" >> lint-ignores.txt
	@grep -rno '//perf:exempt.*' --include='*.go' \
		--exclude-dir=vendor --exclude-dir=testdata --exclude-dir=perfgate . \
		| sed 's|^\./||' | LC_ALL=C sort >> lint-ignores.txt || true
	@cat lint-ignores.txt

# CI drift gate: lint-ignores.txt must match the tree. A failure means
# a suppression was added/removed without re-running `make lint-audit`.
lint-audit-check: lint-audit
	git diff --exit-code lint-ignores.txt

# Known-vulnerability scan (advisory; requires network access to fetch
# govulncheck and the vuln DB, so it is non-blocking in CI and skipped
# silently when the toolchain cannot reach the proxy).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... || \
		echo "govulncheck unavailable or reported findings (advisory only)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused -race pass over the concurrency hot paths of the join kernel
# and the batch API: the kernel's columnar snapshot and witness table
# (TestWitTableConcurrent checks its slots are filled before they are
# published), the server's plan cache, the estimate result cache
# (TestEstimateCacheHammer in the root package drives concurrent
# Get/Put/EstimateQuery across epochs and scopes), and EstimateBatch —
# plus the differential harness, whose cold/warmed/batch/cached
# estimator comparison hammers the kernel's atomic publication of the
# snapshot and witness slots from concurrent seed workers.
race-hot:
	$(GO) test -race . ./internal/core ./internal/pathenc ./internal/server ./internal/difftest

# Per-package statement coverage with checked-in floors
# (coverage-floors.txt): cmd/covercheck fails on any package below its
# floor, so coverage regressions show up in CI, not in review.
COVERPROFILE ?= cover.out
cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./...
	$(GO) run ./cmd/covercheck -profile $(COVERPROFILE) -floors coverage-floors.txt

# Differential correctness smoke (docs/TESTING.md): fixed seed range,
# exact-evaluator oracle against six estimator paths, hard invariants,
# shrunk repros on failure. Runs in seconds; the nightly variant
# sweeps a much larger range.
difftest-smoke:
	$(GO) run ./cmd/xpestdiff -seeds 0:500 -q

# Edit-script oracle smoke (docs/TESTING.md, "Edit-script oracle"):
# generated subtree insert/delete scripts, each op checked for
# bit-identity between the incrementally maintained summary and a
# from-scratch rebuild, plus the inverse metamorphic test.
difftest-edits:
	$(GO) run ./cmd/xpestdiff -seeds 0:120 -edits 6 -q

DIFFTEST_NIGHTLY_SEEDS ?= 0:20000
difftest-nightly:
	$(GO) run ./cmd/xpestdiff -seeds $(DIFFTEST_NIGHTLY_SEEDS)

DIFFTEST_NIGHTLY_EDIT_SEEDS ?= 0:3000
difftest-nightly-edits:
	$(GO) run ./cmd/xpestdiff -seeds $(DIFFTEST_NIGHTLY_EDIT_SEEDS) -edits 8

# Fault-injection chaos gate (docs/OPERATIONS.md, "Resilience"): a
# real server over a faultinject-wrapped store, hammered by concurrent
# estimate/batch/upload/reload workers while fault profiles flap.
# Asserts no corrupt answer is ever served (bit-identical to a
# fault-free oracle), degradation is always explicit, the server
# converges to ready within one reload after faults clear, and
# goroutines drain. Race-clean by construction: always run with -race.
CHAOS_DURATION ?= 8s
chaos:
	XPEST_CHAOS_DURATION=$(CHAOS_DURATION) $(GO) test -race -count=1 -v -run 'TestChaos' ./internal/chaos/

# Per-commit variant: same invariants, short fault phase.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos/

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark-regression harness (docs/PERFORMANCE.md): run the
# benchmark suite with -benchmem, convert the output into a JSON
# artifact via cmd/benchjson, and — when BENCH_BASELINE points at a
# previous artifact — merge before/after with speedup ratios.
# BENCH_PR3.json in the repo root was produced this way. benchjson
# exits non-zero on empty or malformed benchmark output, so this
# target doubles as the CI format check (timings stay advisory).
BENCH          ?= .
BENCHTIME      ?= 1x
BENCH_LABEL    ?= after
BENCH_OUT      ?= bench.json
BENCH_BASELINE ?=
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run XXX -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) ./... > bench.txt
	bin/benchjson -label $(BENCH_LABEL) $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE),) -in bench.txt -out $(BENCH_OUT)

# Benchmark regression gate: re-run the kernel-critical benchmarks and
# fail on a >BENCH_MAX_REGRESS_PCT% ns/op regression against the
# committed BENCH_PR9.json artifact (its "after" run is the baseline).
# The gated list names the same hot set perf-manifest.txt pins, so a
# deinlining caught by `make perfgate` and a ns/op regression caught
# here point at the same functions. Timings are machine-relative —
# after a hardware change, regenerate the artifact
# (docs/PERFORMANCE.md, "Regenerating the baseline") instead of
# chasing a budget measured elsewhere.
BENCH_CHECK_BASELINE  ?= BENCH_PR9.json
BENCH_MAX_REGRESS_PCT ?= 15
BENCH_CHECK_BENCHES   ?= PathJoin,EdgeCompatible,EstimateBatch,EstimateCached,ContainsWords,ContainsAnyWords,ContainsOrEqual
bench-check:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run XXX -bench 'BenchmarkPathJoin$$|BenchmarkEdgeCompatible$$|BenchmarkEstimateBatch$$|BenchmarkEstimateCached$$|BenchmarkContainsWords$$|BenchmarkContainsAnyWords$$|BenchmarkContainsOrEqual$$' -benchmem -benchtime 0.3s . ./internal/core ./internal/pathenc ./internal/bitset > bench-check.txt
	bin/benchjson -check -label check -baseline $(BENCH_CHECK_BASELINE) -max-regress-pct $(BENCH_MAX_REGRESS_PCT) -benches $(BENCH_CHECK_BENCHES) -in bench-check.txt -out bench-check.json

# Per-commit fuzz smoke: every fuzz target for a short, bounded burst.
# Not a substitute for long fuzzing — it catches harness rot (targets
# that no longer build or trip over their own seed corpus) and the
# shallow regressions a few million execs reach.
FUZZTIME_SMOKE ?= 20s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime $(FUZZTIME_SMOKE) ./internal/xpath/
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime $(FUZZTIME_SMOKE) ./internal/xmltree/
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime $(FUZZTIME_SMOKE) ./internal/summaryio/

# Longer local fuzzing pass over the same targets.
FUZZTIME ?= 2m
fuzz:
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xpath/
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmltree/
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/summaryio/

# Regenerate every table and figure of the paper (minutes at the
# default scale; pass SCALE=1.0 for paper-sized documents).
SCALE ?= 0.125
experiments:
	$(GO) run ./cmd/xpest experiments -run all -scale $(SCALE)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bookstore
	$(GO) run ./examples/bibliography
	$(GO) run ./examples/synopsis-tuning
	$(GO) run ./examples/optimizer

clean:
	$(GO) clean ./...
