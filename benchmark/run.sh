#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the shipped cmd/springfsd and
# the benchmark driver from source into .bench_build/ of the checkout, then
# runs the driver. Everything the Go toolchain writes (build cache, module
# cache, the compiler's work directory) is kept under .bench_build/ by
# pointing HOME and GOTMPDIR there, so the benchmark reads and writes only
# inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Without the program there is nothing to measure: say so before anything
# is started or written.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/springfsd" ]]; then
	echo "benchmark: $root holds no go.mod and cmd/springfsd: the program to benchmark is not here" >&2
	exit 1
fi
out="$root/.bench_build"
# A go command that finds a fresh HOME forks a telemetry child into a
# process group of its own, which outlives it by a second or so. Telemetry
# mode "off" in the private HOME means no such process is ever started.
mkdir -p "$out/home/.config/go/telemetry" "$out/tmp"
echo off >"$out/home/.config/go/telemetry/mode"
gobuild() {
	env HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/home/.cache/go-build" GOPATH="$out/home/go" GOTMPDIR="$out/tmp" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local go build "$@"
}
(cd "$root" && gobuild -o "$out/springfsd" ./cmd/springfsd)
(cd "$root/benchmark" && gobuild -o "$out/scbenchmark" .)
cd "$root"
exec "$out/scbenchmark" -springfsd "$out/springfsd" -workdir "$out" "$@"
