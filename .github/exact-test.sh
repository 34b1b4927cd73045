#!/usr/bin/env bash
# Runs one test by its exact name: `exact-test.sh <cargo test args...> NAME`,
# e.g. `exact-test.sh -p pac-net --lib coordinator::tests::some_test`.
#
# libtest exits 0 on "running 0 tests", so a renamed or deleted test would
# silently drop out of an `--exact` filter. The filter is listed first, and
# the step fails unless it names exactly one test.
set -euo pipefail
name="${*: -1}"
found=$(cargo test -q "$@" -- --exact --list | grep -c ': test$' || true)
if [ "$found" -ne 1 ]; then
  echo "::error::'$name' matches $found test(s), not 1" >&2
  exit 1
fi
cargo test -q "$@" -- --exact
