#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs it
# with the given arguments:
#
#   bash rmebench/run.sh --workload service --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.  Exits non-zero, printing no result, when the checkout has no
# sources to build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rmebench: no dune-project and lib/ in $root; run from a full checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./rmebench/main.exe 1>&2
exec ./_build/default/rmebench/main.exe "$@"
