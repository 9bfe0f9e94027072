#!/usr/bin/env bash
# Durable-deployment smoke (DESIGN.md §11): compile a bundle into a state
# dir, hard-kill (SIGKILL — no atexit, no cleanup) a paced serve mid-run,
# then warm-restart from the surviving bundle and require (a) the store
# verifies clean, (b) the restart actually skipped the compile, and (c) the
# warm answers are identical to a cold start's. Finally, `store ls|verify`
# on a directory that does not exist must fail with a typed error and
# create nothing.
#
# Usage: scripts/store_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-store-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
STATE="$DIR/state"

# per-request lines minus the latency suffix — the timing-free part
# ("req NN: ok class=K via RUNG") must be reproducible across restarts
req_lines() { grep '^req ' "$1" | sed 's/ ([0-9].*//'; }

echo "-- compile into the state dir"
"$BIN" compile micro --state-dir "$STATE" --no-keys >/dev/null

echo "-- cold reference run (no state dir)"
"$BIN" serve micro --requests 8 --domains 2 >"$DIR/cold.out"
req_lines "$DIR/cold.out" >"$DIR/cold.req"

echo "-- hard kill a paced serve mid-run"
"$BIN" serve micro --requests 64 --domains 2 --interarrival-ms 50 \
  --state-dir "$STATE" >"$DIR/killed.out" 2>&1 &
PID=$!
sleep 1
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

echo "-- store verifies clean after the kill"
"$BIN" store verify "$STATE"

echo "-- warm restart"
"$BIN" serve micro --requests 8 --domains 2 --state-dir "$STATE" >"$DIR/warm.out"
grep -q '^warm restart: generation' "$DIR/warm.out" || {
  echo "store smoke FAIL: serve did not warm-restart from the bundle" >&2
  exit 1
}
req_lines "$DIR/warm.out" >"$DIR/warm.req"

echo "-- warm answers match the cold run"
diff -u "$DIR/cold.req" "$DIR/warm.req"

echo "-- inspecting a nonexistent store fails typed and creates nothing"
MISSING="$DIR/no-such-store"
for sub in ls verify; do
  if "$BIN" store "$sub" "$MISSING" >"$DIR/missing.out" 2>&1; then
    echo "store smoke FAIL: store $sub on a missing directory exited 0" >&2
    exit 1
  fi
  grep -q 'no store at this path' "$DIR/missing.out" || {
    echo "store smoke FAIL: store $sub printed no typed error" >&2
    cat "$DIR/missing.out" >&2
    exit 1
  }
  test ! -e "$MISSING" || {
    echo "store smoke FAIL: store $sub created $MISSING" >&2
    exit 1
  }
done

echo "store smoke OK"
