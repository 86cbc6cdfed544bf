#!/usr/bin/env bash
# Builds the ledger and the psst server binary from this checkout, then
# runs one ledger workload; arguments pass through to `ledger.exe run`,
# e.g.  bash bench/ledger/run.sh --workload warm --seed 3 --seconds 10 --trace 0
# Build output goes to stderr; the last line on stdout is the result JSON.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/ledger/ledger.exe bin/psst.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run --psst ./_build/default/bin/psst.exe "$@"
