#!/bin/sh
# Repeatability check, the acceptance criterion as a script: runs the full
# benchmark twice (two sets of SEEDS seeds per workload, default 10) and
# fails if any end-to-end metric's spread exceeds its bound, if set B's
# median is worse than set A's by more than the bound, if a result object
# does not match BENCHMARK.json, or if any run has a failed operation or an
# output that differs from the oracle (failed_ops_share must be 0 in both).
#
#   benchmark/check.sh            # ~45 min: 2 x 10 seeds x 4 workloads
#   SEEDS=4 benchmark/check.sh    # quicker, coarser
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 benchmark/spread.py --seeds "${SEEDS:-10}"
