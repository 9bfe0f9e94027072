#!/usr/bin/env bash
# Compiled-plan smoke (DESIGN.md §14): every answer comes from a prepared
# plan, which a warm restart rebuilds from the bundle's compiled decisions
# (DESIGN.md §11), and the plan must carry the sentinel lane. Requires
# (a) a fresh generation stores no plan (no plan.chet), (b) a warm restart
# from it skips the compile and answers exactly like a cold serve,
# (c) a sentinel-verified serve answers every request with a finite
# sentinel margin, and (d) a real micro serve whose deadline one inference
# (about 2.4 s on 2 vCPUs) fits is answered by the primary deployment:
# deadlines are enforced by elapsed time, not by a cost prediction, and
# (e) a persistently faulty serve ends every request in a typed error: a
# service has one deployment and nothing to fall back to.
#
# Usage: scripts/plan_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-plan-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
STATE="$DIR/state"
REQUESTS=8

# per-request lines minus the latency suffix — the timing-free part
# ("req NN: ok class=K via RUNG") must match across restarts
req_lines() { grep '^req ' "$1" | sed 's/ ([0-9].*//'; }

echo "-- cold serve"
"$BIN" serve micro --requests "$REQUESTS" --domains 2 >"$DIR/cold.out"
req_lines "$DIR/cold.out" >"$DIR/cold.req"

echo "-- compile into the state dir (the bundle stores no plan)"
"$BIN" compile micro --state-dir "$STATE" --no-keys >/dev/null
test -n "$(ls "$STATE"/gen-*/meta.chet 2>/dev/null)" || {
  echo "plan smoke FAIL: compile saved no generation" >&2
  exit 1
}
test -z "$(ls "$STATE"/gen-*/plan.chet 2>/dev/null)" || {
  echo "plan smoke FAIL: a fresh generation has a plan.chet" >&2
  exit 1
}

echo "-- warm restart from the bundle"
"$BIN" serve micro --requests "$REQUESTS" --domains 2 --state-dir "$STATE" >"$DIR/warm.out"
grep -q '^warm restart: generation' "$DIR/warm.out" || {
  echo "plan smoke FAIL: serve did not warm-restart from the bundle" >&2
  exit 1
}
req_lines "$DIR/warm.out" >"$DIR/warm.req"

echo "-- warm answers match the cold ones"
diff -u "$DIR/cold.req" "$DIR/warm.req"

echo "-- sentinel-verified serve runs the twin plan"
"$BIN" serve micro --requests "$REQUESTS" --domains 2 --sentinel --metrics-dump >"$DIR/sentinel.out"
ok=$(grep -c '^req [0-9]*: ok ' "$DIR/sentinel.out" || true)
test "$ok" -eq "$REQUESTS" || {
  echo "plan smoke FAIL: $ok of $REQUESTS sentinel requests answered" >&2
  exit 1
}
margin=$(awk '/^chet_serve_sentinel_margin_bits / { print $2 }' "$DIR/sentinel.out")
case "$margin" in
  "" | nan | NaN | inf | -inf | +Inf | -Inf)
    echo "plan smoke FAIL: sentinel margin not finite: '$margin'" >&2
    exit 1
    ;;
esac

echo "-- a real serve that fits its deadline is answered by the primary"
"$BIN" serve micro --real --requests 1 --domains 1 --deadline-ms 8000 >"$DIR/real.out"
grep -q '^req 00: ok .* via primary' "$DIR/real.out" || {
  echo "plan smoke FAIL: real serve within its deadline not answered by the primary:" >&2
  grep '^req ' "$DIR/real.out" >&2 || true
  exit 1
}

echo "-- a persistent fault ends every request in a typed error"
FAULTY=4
"$BIN" serve micro --requests "$FAULTY" --fault persistent >"$DIR/persistent.out"
errs=$(grep -c '^req [0-9]*: ERR ' "$DIR/persistent.out" || true)
test "$errs" -eq "$FAULTY" || {
  echo "plan smoke FAIL: $errs of $FAULTY persistently faulty requests ended in a typed error" >&2
  grep '^req ' "$DIR/persistent.out" >&2 || true
  exit 1
}
if grep -qE '\[degraded\]|clear-fallback' "$DIR/persistent.out"; then
  echo "plan smoke FAIL: a persistently faulty request was answered by a fallback" >&2
  exit 1
fi

echo "plan smoke OK"
