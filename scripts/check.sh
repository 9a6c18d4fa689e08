#!/bin/sh
# Repo health check: build everything, run the full test battery, run the
# Vlint static analyses over every bundled program in strict mode (Error
# or Warn findings fail), the fault-injection smoke check (IronKV
# crosscheck at 5% drop+dup, one torn-write log recovery), the profiler
# JSON smoke (verus_cli profile --json must emit a document that parses
# and validates against the verus-profile/2 schema), the verification-
# cache smoke (a cold run fills the store, a warm run serves 100% of the
# obligations from it with an identical result digest, counters are
# deterministic under jobs>1, and a corrupted store degrades to a cold
# run), the proof-certificate smoke (every bundled program verifies with
# certification on and every Unsat's certificate replays to Checked
# through the independent Vcheck kernel — one Rejected fails the gate),
# the durable-IronKV smoke (a seeded crash+partition storm over durable
# hosts with linearizability crosschecks and a no-acked-write-lost
# readback sweep, plus a recovery-time probe),
# the verification-daemon smoke (an in-process daemon serving two
# overlapping streaming clients whose digests must match in-process
# jobs=1 runs, a warm third client that must hit the shared cache, and
# the docs gate validating every fenced JSON example in
# docs/PROTOCOL.md against the verus-rpc/1 schema),
# the Vflow analyze smoke (every obligation the abstract-interpretation
# prescreen proves at rung 0 is independently re-proved by the SMT
# solver across the whole bundled suite — one disagreement fails —
# plus discharge and digest-stability pins),
# the Vladder escalation-ladder smoke (escalate-ladder runs must digest
# identically to monolithic runs across a program x profile suite, every
# recorded winning rung must reproduce its answer pinned standalone, and
# warm runs must jump to the recorded winning rung with zero wasted
# lower-rung attempts),
# and — when odoc is installed — the API-doc build,
# warnings-as-errors.  This is the tree-must-stay-green gate:
#
#   scripts/check.sh
#
# Exit code 0 means every stage passed (the doc stage reports "skipped"
# on machines without odoc rather than failing).
set -eu

cd "$(dirname "$0")/.."

echo "== 1/12 build =="
dune build @all

echo "== 2/12 tests =="
dune runtest

echo "== 3/12 lint (strict) =="
dune build @lint

echo "== 4/12 fault smoke =="
dune build @faults

echo "== 5/12 profile JSON smoke =="
dune build @profile

echo "== 6/12 cache smoke (cold/warm/corrupt) =="
dune build @cache

echo "== 7/12 api docs =="
if command -v odoc >/dev/null 2>&1; then
  dune build @doc 2>doc-warnings.log || {
    cat doc-warnings.log
    rm -f doc-warnings.log
    exit 1
  }
  if [ -s doc-warnings.log ]; then
    echo "odoc warnings:"
    cat doc-warnings.log
    rm -f doc-warnings.log
    exit 1
  fi
  rm -f doc-warnings.log
  echo "docs built warning-clean"
else
  echo "odoc not installed; skipped (install odoc to enable)"
fi

echo "== 8/12 certificate smoke (emit + kernel replay) =="
dune build @certify

echo "== 9/12 durable kv smoke (storm + recovery) =="
dune build @kv

echo "== 10/12 daemon smoke (scheduler + rpc + docs gate) =="
dune build @daemon

echo "== 11/12 analyze smoke (prescreen/SMT crosscheck) =="
dune build @analyze

echo "== 12/12 ladder smoke (escalation/monolithic digest parity + rung pins) =="
dune build @ladder

echo "== all checks passed =="
