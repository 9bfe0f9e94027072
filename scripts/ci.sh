#!/usr/bin/env bash
# CI entry point: full build, the complete test suite, then a smoke run of
# the example programs (compile-only paths; no --real flags, so it stays
# fast enough for a gate).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== smoke: examples =="
dune build @smoke

echo "== smoke: serve =="
# The serving layer runs domain workers with deadlines and retries; a hang
# here (wedged pool, lost wakeup) would otherwise stall CI forever, so the
# smoke run sits under a hard wall-clock timeout.
timeout 120 dune build @serve-smoke

echo "== smoke: obs =="
# Traced run -> Chrome-JSON validation -> quick profile -> calibrated
# compile. The profile loops real lattice ops, so it too gets a hard cap.
timeout 300 dune build @obs-smoke

echo "== smoke: store =="
# Durable deployments end to end: compile --state-dir, SIGKILL a serve
# mid-run, verify the store, warm-restart, and diff the answers against a
# cold start. Hard cap so a wedged warm restart fails CI instead of
# hanging it.
timeout 120 scripts/store_smoke.sh

echo "== smoke: plan =="
# Compiled plans end to end: bundle with a PLAN frame, a warm restart from
# it answering exactly like a cold serve, and a sentinel-verified serve
# answering every request with a finite margin. Hard cap, like every smoke.
timeout 180 scripts/plan_smoke.sh

echo "== smoke: kernels (@kernel-smoke) =="
# Fast-ring kernels (DESIGN.md §15): the Bigarray/Shoup NTT must beat the
# scalar reference, and real-backend inference must be bit-identical across
# 1- and 2-domain kernel pools. Real lattice ops throughout, so a hard cap.
timeout 60 dune build @kernel-smoke
timeout 300 scripts/kernel_smoke.sh

echo "== bench: paper tables =="
# The paper-table generator on a fast Table 4 and Figure 6, from an empty
# scratch directory: it must exit 0, print the Table 4 rows, the 16 Figure 6
# points (8 SEAL, 8 HEAAN: both schemes' simulation of every layout policy
# under the raw Table-1 cost terms) and their Pearson r, and write no file.
# (The fast-vs-scalar NTT gate is kernel_smoke.sh's "ntt microbench".)
dune build bench/main.exe
BENCH_BIN="$PWD/_build/default/bench/main.exe"
BENCH_DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-ci-bench.XXXXXX")
trap 'rm -rf "$BENCH_DIR"' EXIT
TABLE4=$(cd "$BENCH_DIR" && timeout 120 "$BENCH_BIN" --fast --table 4)
echo "$TABLE4"
echo "$TABLE4" | grep -q '^===== Table 4:' && echo "$TABLE4" | grep -q '^| LeNet-5-small ' || {
  echo "paper-table smoke FAIL: no Table 4 rows printed" >&2
  exit 1
}
FIG6=$(cd "$BENCH_DIR" && timeout 120 "$BENCH_BIN" --fast --figure 6)
echo "$FIG6"
SEAL_POINTS=$(echo "$FIG6" | grep -Ec '^\| LeNet-5-[a-z]+ +\| SEAL +\|' || true)
HEAAN_POINTS=$(echo "$FIG6" | grep -Ec '^\| LeNet-5-[a-z]+ +\| HEAAN +\|' || true)
if [ "$SEAL_POINTS" -ne 8 ] || [ "$HEAAN_POINTS" -ne 8 ] || ! echo "$FIG6" | grep -q 'Pearson r = '; then
  echo "paper-table smoke FAIL: Figure 6 printed $SEAL_POINTS SEAL and $HEAAN_POINTS HEAAN points (want 8 each) or no Pearson r" >&2
  exit 1
fi
if [ -n "$(ls -A "$BENCH_DIR")" ]; then
  echo "paper-table smoke FAIL: the bench left files behind: $(ls -A "$BENCH_DIR")" >&2
  exit 1
fi

echo "== bench: chetbench correctness =="
# Each benchmark workload for a short run (bench/e2e/README.md): the answers
# its oracle checks must all be right and no operation may fail. Timings
# from a 5-second run are not evidence, so only correctness gates here.
for W in lenet5-small-plan serve-verified; do
  LAST=$(timeout 300 sh bench/e2e/run.sh --workload "$W" --seed 1 --seconds 5 --trace 0 | tail -n 1)
  echo "$W: $LAST"
  echo "$LAST" | grep -q '"correct":true' && echo "$LAST" | grep -Eq '"failed":0[,}]' || {
    echo "chetbench FAIL: $W gave wrong answers or failed operations" >&2
    exit 1
  }
done

echo "== smoke: net =="
# The fork/exec chaos drill: supervisor + 2 shard processes, loadgen with
# wire faults, SIGKILL a shard mid-run. Everything in it is deadline-bounded
# by design; the hard cap turns any regression back into a hang into a CI
# failure instead of a stall.
timeout 300 scripts/net_smoke.sh

echo "== smoke: hedge =="
# Tail-latency drill: 2 shards with one 300ms straggler, loadgen twice —
# hedged p99 must land strictly below unhedged p99 with zero duplicate
# executions (every shard shutdown line reports dedup=0). Deadline-bounded
# throughout; the cap converts any new hang into a CI failure.
timeout 300 scripts/hedge_smoke.sh

echo "== smoke: integrity =="
# Result-integrity drill (DESIGN.md §16): 2 sentinel shards, one silently
# corrupting every ciphertext it computes. Corrupted answers must be caught
# by the sentinel lane, failed over, and the corrupter quarantined after a
# failed selftest probe — with zero corrupted lanes accepted client-side.
timeout 300 scripts/integrity_smoke.sh

echo "CI OK"
