#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash benchmark/run.sh --workload study-fig5 --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the compiler's temporary files and the
# benchmark's scratch stores. The build works offline; the benchmark has
# no dependency outside this repository and the Go standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/scratch"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec go -C "$root/benchmark" run . \
	--spec "$root/BENCHMARK.json" --scratch "$out/scratch" --commit "$commit" "$@"
