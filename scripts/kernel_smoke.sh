#!/usr/bin/env bash
# Fast-ring kernel smoke (DESIGN.md §15): the Bigarray/Shoup kernel path
# must (a) beat the scalar reference on a raw NTT round trip, (b) hoisted
# rotations over 8 amounts must beat 8 single rotations, and their sum
# settled once must beat the same sum of rotations each settled, (c) a
# 100-term multiply-accumulate chain computed once as a pending sum must beat
# the chain of two-operand passes, (d) a rotation key must store its residues
# in 4 bytes each and hold one pair per two-prime digit over the chain and
# both special primes, and (e) stay bit-identical when the residue channels
# fan out across a 2-domain Kpool.
# Any drift is a reduction-window bug, not noise. (Bit-identity of the fast
# kernels against the schoolbook reference is test/test_kernels.ml's job.)
#
# Usage: scripts/kernel_smoke.sh  (expects a completed `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=_build/default/bin/chet_cli.exe
KBENCH=_build/default/bench/kbench.exe
DIR=$(mktemp -d "${TMPDIR:-/tmp}/chet-kernel-smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

echo "-- ntt microbench: fast path must beat the scalar reference"
"$KBENCH" 4096 100 | tee "$DIR/kbench.out"
fast_us=$(awk '/ntt fast/ { print $3 }' "$DIR/kbench.out")
scalar_us=$(awk '/ntt scalar/ { print $3 }' "$DIR/kbench.out")
awk -v f="$fast_us" -v s="$scalar_us" 'BEGIN { exit !(f + 0 < s + 0) }' || {
  echo "kernel smoke FAIL: fast NTT ($fast_us us) not faster than scalar ($scalar_us us)" >&2
  exit 1
}

echo "-- hoisted rotations: rot_many over 8 amounts must beat 8 single rotations"
many_ms=$(awk '/rot_many 8/ { print $3 }' "$DIR/kbench.out")
single_ms=$(awk '/rot_many 8/ { print $8 }' "$DIR/kbench.out")
awk -v m="$many_ms" -v s="$single_ms" 'BEGIN { exit !(m + 0 > 0 && m + 0 < s + 0) }' || {
  echo "kernel smoke FAIL: rot_many ($many_ms ms) not faster than 8 rotations ($single_ms ms)" >&2
  exit 1
}

echo "-- deferred mod-down: a sum of 8 hoisted rotations settled once must beat settling each"
sum_ms=$(awk '/rot-sum 8/ { print $3 }' "$DIR/kbench.out")
each_ms=$(awk '/rot-sum 8/ { print $6 }' "$DIR/kbench.out")
awk -v d="$sum_ms" -v e="$each_ms" 'BEGIN { exit !(d + 0 > 0 && d + 0 < e + 0) }' || {
  echo "kernel smoke FAIL: rot-sum settled once ($sum_ms ms) not faster than settle-each ($each_ms ms)" >&2
  exit 1
}

echo "-- pending sums: a 100-term multiply-accumulate in one pass must beat the chain"
mac_ms=$(awk '/mac-chain 100/ { print $3 }' "$DIR/kbench.out")
chain_ms=$(awk '/mac-chain 100/ { print $6 }' "$DIR/kbench.out")
awk -v m="$mac_ms" -v c="$chain_ms" 'BEGIN { exit !(m + 0 > 0 && m + 0 < c + 0) }' || {
  echo "kernel smoke FAIL: pending sum ($mac_ms ms) not faster than the chain ($chain_ms ms)" >&2
  exit 1
}

echo "-- residue storage: a rotation key takes 4 bytes per residue"
key_bytes=$(awk '/rotation key/ { print $3 }' "$DIR/kbench.out")
key_residues=$(awk '/rotation key/ { print $5 }' "$DIR/kbench.out")
awk -v b="$key_bytes" -v r="$key_residues" 'BEGIN { exit !(r + 0 > 0 && b + 0 == 4 * r) }' || {
  echo "kernel smoke FAIL: rotation key takes $key_bytes bytes for $key_residues residues, not 4 per residue" >&2
  exit 1
}

echo "-- hybrid key layout: 3 digits x 2 polynomials x 8 key-basis primes x 4096"
test "$key_residues" -eq $((3 * 2 * 8 * 4096)) || {
  echo "kernel smoke FAIL: n=4096, 6-prime rotation key has $key_residues residues, not 196608" >&2
  exit 1
}

# the timing-free tail of a real run: "class=K (clear K); max |err|=E"
result_line() { grep '^measured latency' "$1" | sed 's/^measured latency: [0-9.]* s; //'; }

echo "-- real-backend inference, fast ring (1 domain)"
"$BIN" run micro --target seal --real --domains 1 >"$DIR/fast.out"
result_line "$DIR/fast.out" >"$DIR/fast.res"

echo "-- real-backend inference, fast ring across 2 kernel domains"
"$BIN" run micro --target seal --real --domains 2 >"$DIR/dom2.out"
result_line "$DIR/dom2.out" >"$DIR/dom2.res"

echo "-- both runs must agree bit-for-bit"
diff -u "$DIR/fast.res" "$DIR/dom2.res"
cat "$DIR/fast.res"

echo "-- profile grid on the real backends (quick)"
"$BIN" profile --quick -o "$DIR/kernel-calibration.json" >/dev/null
test -s "$DIR/kernel-calibration.json" || {
  echo "kernel smoke FAIL: profile wrote no calibration" >&2
  exit 1
}

echo "kernel smoke OK"
