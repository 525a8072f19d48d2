#!/bin/sh
# Repository check: formatting (when ocamlformat is available), build, tests.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check) =="
  dune build @fmt 2>/dev/null || {
    echo "formatting check failed; run 'dune fmt' to fix" >&2
    exit 1
  }
else
  echo "== ocamlformat not installed; skipping format check =="
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== bench smoke (JSON baseline + gates) =="
BENCH_OUT=$(mktemp /tmp/bench_smoke.XXXXXX.json)
trap 'rm -f "$BENCH_OUT"' EXIT
BENCH_REV=ci-smoke dune exec bench/main.exe -- --json "$BENCH_OUT" table1 concurrency health shard groupcommit olc >/dev/null
BENCH_REV=ci-smoke dune exec bench/main.exe -- check "$BENCH_OUT"

echo "== torture sweep =="
dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 1 -n 120 >/dev/null
dune exec bin/reorg_cli.exe -- torture --seed 42 --stride 1 -n 120 >/dev/null
echo "== torture sweep (async pipeline: group-commit windows, checkpoint truncation) =="
dune exec bin/reorg_cli.exe -- torture --seed 11 --stride 7 -n 120 --users 2 --pipeline >/dev/null
dune exec bin/reorg_cli.exe -- torture --seed 42 --stride 7 -n 120 --users 2 --pipeline >/dev/null
echo "== torture sweep (optimistic readers: crashes inside lock-free descents) =="
dune exec bin/reorg_cli.exe -- torture --seed 7 --stride 17 -n 120 --users 2 --olc >/dev/null
echo "torture OK"

echo "== model conformance =="
dune exec bin/reorg_cli.exe -- model --seeds 11,23,42 --experiments workload
dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture,shard --stride 1 -n 120
dune exec bin/reorg_cli.exe -- model --seeds 11 --experiments torture --stride 7 -n 120 --pipeline
dune exec bin/reorg_cli.exe -- model --seeds 11,23 --experiments workload --olc
dune exec bin/reorg_cli.exe -- model --seeds 7 --experiments torture --stride 29 -n 120 --olc
echo "== model mutation self-tests (must exit 2) =="
set +e
dune exec bin/reorg_cli.exe -- model --mutate table1 >/dev/null
rc=$?
set -e
test "$rc" -eq 2 || { echo "mutate table1: expected exit 2, got $rc" >&2; exit 1; }
set +e
dune exec bin/reorg_cli.exe -- model --mutate switch >/dev/null
rc=$?
set -e
test "$rc" -eq 2 || { echo "mutate switch: expected exit 2, got $rc" >&2; exit 1; }
set +e
dune exec bin/reorg_cli.exe -- model --mutate olc >/dev/null
rc=$?
set -e
test "$rc" -eq 2 || { echo "mutate olc: expected exit 2, got $rc" >&2; exit 1; }
echo "model OK"

echo "All checks passed."
