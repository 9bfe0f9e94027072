#!/usr/bin/env bash
# Networked-serving smoke (DESIGN.md §12): the real fork/exec chaos drill.
# Start a supervisor with two shard-worker processes (each with its own
# store bundle), drive concurrent loadgen traffic with wire faults, SIGKILL
# shard 1 mid-run through the control endpoint, and require
#   (a) every request is answered ok — faults and the kill are routed
#       around, never hung on;
#   (b) the supervisor restarts the killed shard and the restart is a WARM
#       restart from the shard's bundle;
#   (c) the restart shows up in the supervisor's metrics;
#   (d) supervisor and shards shut down cleanly on SIGTERM.
#
# Usage: scripts/net_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-net-smoke.XXXXXX")
SUP_PID=
cleanup() {
  [ -n "$SUP_PID" ] && kill -9 "$SUP_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

FRONT="unix:$DIR/front.sock"

echo "-- start supervisor: 2 shards, per-shard store bundles"
"$BIN" supervise micro --front "$FRONT" --shards 2 \
  --sock-dir "$DIR/shards" --state-dir "$DIR/state" >"$DIR/sup.out" 2>&1 &
SUP_PID=$!

# The front socket listens before the shards finish compiling; traffic sent
# that early is (correctly) rejected as typed "no routable shard". Wait for
# the ready line — printed once await_ready sees both shards answer pings.
for _ in $(seq 1 300); do
  grep -q '^supervisor: pid' "$DIR/sup.out" 2>/dev/null && break
  kill -0 "$SUP_PID" 2>/dev/null || { echo "net smoke FAIL: supervisor died during startup" >&2; cat "$DIR/sup.out"; exit 1; }
  sleep 0.2
done
grep -q '^supervisor: pid' "$DIR/sup.out" || {
  echo "net smoke FAIL: supervisor not ready within 60s" >&2
  exit 1
}

echo "-- loadgen: 50 requests, wire faults every 7th, SIGKILL shard 1 mid-run"
timeout 120 "$BIN" loadgen micro --addr "$FRONT" \
  --requests 50 --concurrency 4 --fault-every 7 \
  --kill-after 10 --kill-shard 1 --control "$FRONT" \
  --bench-out "$DIR/BENCH.json" >"$DIR/loadgen.out" 2>&1
cat "$DIR/loadgen.out"

echo "-- every request answered ok despite faults and the kill"
grep -q '^loadgen: 50 requests, 50 ok' "$DIR/loadgen.out" || {
  echo "net smoke FAIL: not all 50 requests succeeded" >&2
  exit 1
}
grep -q ' [1-9][0-9]* faults injected' "$DIR/loadgen.out" || {
  echo "net smoke FAIL: no wire faults were injected" >&2
  exit 1
}

echo "-- percentiles written to BENCH.json"
grep -q '"loadgen"' "$DIR/BENCH.json" && grep -q '"p50_ms"' "$DIR/BENCH.json" || {
  echo "net smoke FAIL: BENCH.json missing loadgen percentiles" >&2
  exit 1
}

echo "-- graceful shutdown on SIGTERM"
kill -TERM "$SUP_PID"
# the supervisor drains its shards (SIGTERM, 5s grace each) then prints
# metrics; a wedged shutdown is exactly the hang this smoke exists to catch
for _ in $(seq 1 100); do
  kill -0 "$SUP_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SUP_PID" 2>/dev/null; then
  echo "net smoke FAIL: supervisor did not exit within 20s of SIGTERM" >&2
  exit 1
fi
wait "$SUP_PID" 2>/dev/null || true
SUP_PID=
cat "$DIR/sup.out"

echo "-- killed shard was restarted, warm, from its bundle"
grep -q 'chet_sup_restarts_total{shard="1"} 1' "$DIR/sup.out" || {
  echo "net smoke FAIL: supervisor metrics do not show the shard-1 restart" >&2
  exit 1
}
grep -q '^shard 1: .*(warm, gen' "$DIR/sup.out" || {
  echo "net smoke FAIL: restarted shard did not warm-restart from its bundle" >&2
  exit 1
}
grep -q '^supervisor: clean shutdown' "$DIR/sup.out" || {
  echo "net smoke FAIL: supervisor did not report a clean shutdown" >&2
  exit 1
}

echo "net smoke OK"
