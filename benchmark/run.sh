#!/usr/bin/env bash
# Builds once, runs every workload plain and traced, then compares the
# plain run with the committed baseline. Prints the total wall time, so
# the time the whole benchmark needs on this machine can be read off.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
started=$SECONDS

# Probe stores of a run that was killed; results and traces are kept.
trap 'rm -rf "$here"/out/store-probe-*' EXIT
rm -rf "$here/out"

cargo build --release --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/pac-benchmark"

"$bin" run --seed "$seed" --out "$here/out/results.json"
"$bin" run --seed "$seed" --traced --out "$here/out/results-traced.json"
status=0
"$bin" compare "$here/baseline.json" "$here/out/results.json" || status=$?
echo "total wall: $((SECONDS - started)) s; results and traces in $here/out"
exit "$status"
