#!/usr/bin/env bash
# Hedged-request smoke (DESIGN.md §13): prove that hedging cuts the tail.
# Two drills against the same deliberately-lopsided fleet — 2 shards, shard 0
# sleeping 300 ms before every inference — one without hedging, one with
# --hedge-ms 50. Require
#   (a) every request answered ok in both drills;
#   (b) hedged p99 strictly below unhedged p99 (the whole point);
#   (c) the supervisor's metrics show hedges launched AND won by the
#       duplicate leg, with losers cancelled over the wire (CNCL);
#   (d) zero duplicate executions: every shard's shutdown line reports
#       dedup=0 — hedge siblings go to a *different* shard and losers are
#       cancelled, so no request id is ever executed twice;
#   (e) hedging off means no hedges: the unhedged drill's supervisor
#       reports chet_sup_hedges_total 0 — the one router starts a second
#       leg early only when a hedge delay is set.
#
# Usage: scripts/hedge_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-hedge-smoke.XXXXXX")
SUP_PID=
cleanup() {
  [ -n "$SUP_PID" ] && kill -9 "$SUP_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

REQUESTS=24

# run_drill NAME [extra supervise args...] -> leaves $DIR/NAME-sup.out,
# $DIR/NAME-loadgen.out and sets P99 to the drill's loadgen p99 (ms).
run_drill() {
  local name="$1"
  shift
  local front="unix:$DIR/$name-front.sock"

  echo "-- $name: supervisor, 2 shards, shard 0 slowed by 300ms $*"
  "$BIN" supervise micro --front "$front" --shards 2 \
    --sock-dir "$DIR/$name-shards" --slow-shard 0 --slow-ms 300 "$@" \
    >"$DIR/$name-sup.out" 2>&1 &
  SUP_PID=$!

  for _ in $(seq 1 300); do
    grep -q '^supervisor: pid' "$DIR/$name-sup.out" 2>/dev/null && break
    kill -0 "$SUP_PID" 2>/dev/null || {
      echo "hedge smoke FAIL: $name supervisor died during startup" >&2
      cat "$DIR/$name-sup.out"
      exit 1
    }
    sleep 0.2
  done
  grep -q '^supervisor: pid' "$DIR/$name-sup.out" || {
    echo "hedge smoke FAIL: $name supervisor not ready within 60s" >&2
    exit 1
  }

  echo "-- $name: loadgen, $REQUESTS requests"
  timeout 120 "$BIN" loadgen micro --addr "$front" \
    --requests "$REQUESTS" --concurrency 4 \
    --bench-out "$DIR/$name-BENCH.json" >"$DIR/$name-loadgen.out" 2>&1
  cat "$DIR/$name-loadgen.out"

  grep -q "^loadgen: $REQUESTS requests, $REQUESTS ok" "$DIR/$name-loadgen.out" || {
    echo "hedge smoke FAIL: $name: not all $REQUESTS requests succeeded" >&2
    exit 1
  }

  kill -TERM "$SUP_PID"
  for _ in $(seq 1 100); do
    kill -0 "$SUP_PID" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$SUP_PID" 2>/dev/null; then
    echo "hedge smoke FAIL: $name supervisor did not exit within 20s of SIGTERM" >&2
    exit 1
  fi
  wait "$SUP_PID" 2>/dev/null || true
  SUP_PID=

  grep -q '^supervisor: clean shutdown' "$DIR/$name-sup.out" || {
    echo "hedge smoke FAIL: $name supervisor did not shut down cleanly" >&2
    cat "$DIR/$name-sup.out"
    exit 1
  }

  P99=$(sed -n 's/.*p99 \([0-9.]*\)ms.*/\1/p' "$DIR/$name-loadgen.out" | head -1)
  [ -n "$P99" ] || {
    echo "hedge smoke FAIL: $name: no p99 in loadgen output" >&2
    exit 1
  }
}

run_drill unhedged
P99_UNHEDGED=$P99

run_drill hedged --hedge-ms 50
P99_HEDGED=$P99

echo "-- p99: unhedged ${P99_UNHEDGED}ms vs hedged ${P99_HEDGED}ms"
awk -v h="$P99_HEDGED" -v u="$P99_UNHEDGED" 'BEGIN { exit !(h < u) }' || {
  echo "hedge smoke FAIL: hedged p99 (${P99_HEDGED}ms) not below unhedged (${P99_UNHEDGED}ms)" >&2
  exit 1
}

echo "-- hedges launched, won by the duplicate leg, losers cancelled"
grep -Eq 'chet_sup_hedges_total [1-9]' "$DIR/hedged-sup.out" || {
  echo "hedge smoke FAIL: no hedges launched against a 300ms straggler" >&2
  cat "$DIR/hedged-sup.out"
  exit 1
}
grep -Eq 'chet_sup_hedge_wins_total [1-9]' "$DIR/hedged-sup.out" || {
  echo "hedge smoke FAIL: the duplicate leg never won" >&2
  cat "$DIR/hedged-sup.out"
  exit 1
}
grep -Eq 'chet_sup_cancels_sent_total [1-9]' "$DIR/hedged-sup.out" || {
  echo "hedge smoke FAIL: losing legs were never cancelled" >&2
  cat "$DIR/hedged-sup.out"
  exit 1
}

echo "-- hedging off: no hedges launched"
grep -Eq '^chet_sup_hedges_total 0$' "$DIR/unhedged-sup.out" || {
  echo "hedge smoke FAIL: the unhedged drill launched hedges" >&2
  cat "$DIR/unhedged-sup.out"
  exit 1
}

echo "-- zero duplicate executions (dedup=0 on every shard)"
DEDUP_CLEAN=$(grep -c 'graceful shutdown: .*dedup=0' "$DIR/hedged-sup.out" || true)
[ "$DEDUP_CLEAN" -eq 2 ] || {
  echo "hedge smoke FAIL: expected 2 shards reporting dedup=0, saw $DEDUP_CLEAN" >&2
  cat "$DIR/hedged-sup.out"
  exit 1
}

echo "hedge smoke OK"
