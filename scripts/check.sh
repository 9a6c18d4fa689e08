#!/bin/sh
# Repo health check, the tree-must-stay-green gate, in three stages:
#
#   1. build: `dune build @all`, warnings-as-errors.
#   2. tests: `dune runtest` — every alcotest suite under test/ plus the
#      test/cli.t contract.  Besides the unit and property tests this
#      includes the whole-suite gates: every bundled program certifies
#      and every certificate replays through the independent Vcheck
#      kernel (test_vcheck "suite"), every prescreen-proved obligation
#      is SMT-valid (test_vflow "full-suite SMT crosscheck"), and every
#      JSON example in docs/PROTOCOL.md validates against verus-rpc/1
#      (test_verusd "docs").
#   3. api docs: `dune build @doc`, warnings-as-errors, when odoc is
#      installed (reported as skipped otherwise).
#
#   scripts/check.sh
#
# Exit code 0 means every stage passed.
set -eu

cd "$(dirname "$0")/.."

echo "== 1/3 build =="
dune build @all

echo "== 2/3 tests =="
dune runtest

echo "== 3/3 api docs =="
if command -v odoc >/dev/null 2>&1; then
  log=$(mktemp)
  trap 'rm -f "$log"' EXIT
  if ! dune build @doc 2>"$log" || [ -s "$log" ]; then
    echo "odoc failed or warned:"
    cat "$log"
    exit 1
  fi
  echo "docs built warning-clean"
else
  echo "odoc not installed; skipped (install odoc to enable)"
fi

echo "== all checks passed =="
