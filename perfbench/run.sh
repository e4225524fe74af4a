#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
#
# Everything it writes goes under $CARGO_TARGET_DIR (default .bench_build):
# the Go build cache, the binary, spans and scratch data.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

# The commit and whether the tree differs from it, when the checkout is a
# git work tree; recorded in every result.
export PERFBENCH_COMMIT=unknown PERFBENCH_DIRTY=0
if commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null); then
	PERFBENCH_COMMIT=$commit
	if [ -n "$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" status --porcelain 2>/dev/null)" ]; then
		PERFBENCH_DIRTY=1
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out" "$@"
