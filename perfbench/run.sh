#!/usr/bin/env bash
# Builds the benchmark and stemsd from the sources of the checkout it is
# run in, then runs one measurement. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache, the Go configuration directory
# and temporary stores stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stemsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a stems checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

# Plain go build, so cmd/stemsd/default.pgo applies as when deployed.
go build -o "$out/stemsd" ./cmd/stemsd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -stemsd "$out/stemsd" "$@"
