#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of
# a simevo checkout:
#
#   bash e2ebench/run.sh --workload serial-10k-wp --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache and the trace files.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "e2ebench: run from the root of a simevo checkout (no go.mod/internal here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, module cache, temp
# work directories, telemetry counters) inside the checkout, and ignore
# user-level go settings.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/e2ebench" build -o "$out/e2ebench" .

if [[ -z "${BENCH_COMMIT:-}" ]]; then
	BENCH_COMMIT=unknown
	if [[ -e "$root/.git" ]]; then
		BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	fi
fi
export BENCH_COMMIT
export BENCH_OUT="$out"
exec "$out/e2ebench" "$@"
