#!/usr/bin/env bash
# Builds the benchmark and the sdlived daemon from the sources of the
# checkout it is started in, then runs the benchmark with the given
# arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, binaries, CPU profiles, span dumps) lands under
# .bench_build in that root; HOME points there too, so the Go toolchain
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/experiment" ] || [ ! -d "$root/cmd/sdlived" ]; then
	echo "perfbench: $root holds no repository sources (go.mod, internal/experiment, cmd/sdlived); run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
go build -o "$out/sdlived" ./cmd/sdlived
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -go "$(command -v go)" -sdlived "$out/sdlived" -out "$out" "$@"
