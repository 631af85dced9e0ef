#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, summary stores, traces) goes under .bench_build/ there.
# --workload all runs the three workloads one after another.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" \
	TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

workload=""
prev=""
for a in "$@"; do
	if [ "$prev" = "--workload" ]; then workload=$a; fi
	prev=$a
done
if [ "$workload" != "all" ]; then
	exec "$out/perfbench" "$@"
fi
args=()
skip=0
for a in "$@"; do
	if [ $skip = 1 ]; then skip=0; continue; fi
	if [ "$a" = "--workload" ]; then skip=1; continue; fi
	args+=("$a")
done
for w in read-hot read-cold write-mix; do
	"$out/perfbench" --workload "$w" "${args[@]}"
done
