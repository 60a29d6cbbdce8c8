#!/usr/bin/env bash
# Runs two alternating sets of benchmark runs and compares them.
#
#   bench/ledger/run.sh [RUNS=10] [SEED=1] [SECONDS=8]
#
# Ten runs per set is what the quartiles need: with five, a single outlying
# run moves a quartile and the row reads `unresolved`. One run of the four
# workloads takes about 95 s, so the default takes about 32 minutes.
#
# Set A and set B take turns (A1 B1 A2 B2 ...), B walks the workloads in
# reverse order, and every run i of both sets uses seed SEED+i, so the two
# sets see the same inputs in a different order. With BIN_A and BIN_B unset
# both sets run this checkout's build: the result then shows whether the
# benchmark agrees with itself. To compare two commits, build each into its
# own target directory and point BIN_A / BIN_B at the two executables.
#
# Reports land in bench/ledger/out/sets/{A,B}/; the script ends with
# `perf_ledger compare`, whose exit code it returns. Run it from the root of
# the checkout.
set -euo pipefail

runs=${1:-10}
seed=${2:-1}
seconds=${3:-8}
manifest=crates/bench/src/bin/perf_ledger/Cargo.toml
out=bench/ledger/out/sets

if [[ -z "${BIN_A:-}" || -z "${BIN_B:-}" ]]; then
    cargo build --release --offline --manifest-path "$manifest"
    target=${CARGO_TARGET_DIR:-$(dirname "$manifest")/target}
    BIN_A=${BIN_A:-$target/release/perf_ledger}
    BIN_B=${BIN_B:-$target/release/perf_ledger}
fi

workloads=(hw_mix ingest_durable read_cold kv_replicated)
reversed=(kv_replicated read_cold ingest_durable hw_mix)
rm -rf "$out"
mkdir -p "$out/A" "$out/B"
for ((i = 0; i < runs; i++)); do
    for w in "${workloads[@]}"; do
        "$BIN_A" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
            --json "$out/A/$w-$i.json" >/dev/null
    done
    for w in "${reversed[@]}"; do
        "$BIN_B" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
            --json "$out/B/$w-$i.json" >/dev/null
    done
done
"$BIN_A" compare "$out/A" "$out/B"
