#!/usr/bin/env bash
# One command for the whole benchmark: builds it (release, offline), then
# runs every workload untraced and traced, prints the metric lines and
# writes benchmark/results/BENCH_11.json and the trace files.
#   benchmark/run.sh                  the full set
#   benchmark/run.sh --check-repeat   the untraced set twice, compared
#   benchmark/run.sh --spread 10      quartile spreads over ten seeds
# Other arguments (--seed S, --only WORKLOAD) go to suite.py.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --catalogue "$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')" \
    | cmp - BENCHMARK.json || { echo "BENCHMARK.json is not what --catalogue prints" >&2; exit 1; }
exec python3 benchmark/suite.py "$@"
