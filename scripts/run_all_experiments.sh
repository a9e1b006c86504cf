#!/usr/bin/env bash
# Regenerates every table and figure of the paper (see EXPERIMENTS.md).
# Runtime: a few minutes in release mode.
#
# The experiments are the `exp_*` binaries declared in
# crates/bench/Cargo.toml, in the order declared there: the manifest is
# the list, so a deleted or added experiment needs no edit here. (Globbing
# target/release/ would also run stale binaries a past build left behind.)
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=crates/bench/Cargo.toml
exps=$(awk -F'"' '/^\[\[bin\]\]/ { bin = 1; next }
                  bin && /^name *=/ { if ($2 ~ /^exp_/) print $2; bin = 0 }' "$manifest")
if [ -z "$exps" ]; then
    echo "no exp_* binaries found in $manifest" >&2
    exit 1
fi
cargo build --release -p raincore-bench --bins
for exp in $exps; do
    echo "================================================================"
    echo "== $exp"
    echo "================================================================"
    "./target/release/$exp"
    echo
done
