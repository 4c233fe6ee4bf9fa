#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload suite|fleet|serve --seed N --seconds S --trace 0|1
#
# Run from the root of an hswsim checkout. Every build artefact, the Go
# build cache, temp files and span dumps go under .bench_build/ in that
# checkout, so nothing is read or written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/exp || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of an hswsim checkout (go.mod, internal/ and e2ebench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
