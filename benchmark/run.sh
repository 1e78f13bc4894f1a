#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see README.md). Everything the build writes — the binary, the
# Go build cache, its temporary files, an (empty) module cache — stays
# under .bench_build/ at the root of the checkout, and the run itself
# writes only benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep every file the go command writes (build cache, module cache, its
# own config and telemetry counters) inside the checkout, and keep it
# off the network: the module has no dependency outside the repository.
(
	export GOCACHE="$build/go-cache"
	export GOPATH="$build/gopath"
	export GOMODCACHE="$build/gopath/pkg/mod"
	export XDG_CONFIG_HOME="$build/config"
	export GOTMPDIR="$build/tmp"
	mkdir -p "$GOTMPDIR"
	export GOTOOLCHAIN=local
	export GOPROXY=off
	cd "$here" && go build -o "$build/synapse-benchmark" .
)
cd "$root"
exec "$build/synapse-benchmark" "$@"
