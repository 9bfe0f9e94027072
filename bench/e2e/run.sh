#!/bin/sh
# Build chetbench from the checkout in the current directory and run it with
# the given arguments (see bench/e2e/README.md). Run from the repository root.
# The dune cache is disabled so the build writes only under ./_build.
set -e
if [ ! -f dune-project ] || [ ! -f bench/e2e/dune ]; then
  echo "chetbench: run from the repository root (no dune-project here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/e2e/chetbench.exe 1>&2
exec ./_build/default/bench/e2e/chetbench.exe "$@"
