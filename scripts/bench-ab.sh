#!/usr/bin/env bash
# A/B the gated benchmark: this checkout (the change) against a checkout of
# its parent commit, as alternating pairs of runs.
#
#   scripts/bench-ab.sh <parent-checkout> <workload> [pairs=10]
#
# Builds both `benchmark/` packages, runs `run <workload>` once per side per
# pair — swapping which side goes first every pair, each side from its own
# checkout root so durable state lands on the same filesystem — counts the
# pairs the change wins on one end-to-end metric, then prints
# `nitro-benchmark compare` over all result files (medians, quartiles, ratio
# and verdict per metric). A pair is a win when the change's value is better
# in the direction the metric's `better` field in BENCHMARK.json gives
# ("higher" or "lower").
#
# Environment: METRIC (default throughput_mpps), SEED (default 1), OUT
# (default /tmp/bench-ab/<workload>-seed<SEED>; one result file per run is
# kept there).
#
#   METRIC=seal_p50_ms scripts/bench-ab.sh <parent-checkout> fleet_saturated_p10 10
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${SEED:-1}
metric=${METRIC:-throughput_mpps}
out=${OUT:-/tmp/bench-ab/$workload-seed$seed}

# The metric's direction, from its entry in BENCHMARK.json (read only).
better=$(awk -v name="\"$metric\"," '
    $1 == "\"name\":" { found = ($2 == name) }
    found && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }
' "$change/BENCHMARK.json")
case "$better" in
    higher | lower) ;;
    *)
        echo "bench-ab: no metric \"$metric\" with a better direction in BENCHMARK.json" >&2
        exit 2
        ;;
esac

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

# run_side <label> <checkout> <pair>: one run; prints the metric's value.
run_side() {
    local dir="$out/$1/pair-$(printf '%02d' "$3")"
    mkdir -p "$dir"
    (cd "$2" && ./benchmark/target/release/nitro-benchmark \
        run "$workload" --seed "$seed" --out-dir "$dir") >"$dir/stdout.txt"
    tail -n 1 "$dir/stdout.txt" | sed -n "s/.*\"$metric\":{\"value\":\([-0-9.eE+]*\).*/\1/p"
}

wins=0
ties=0
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        p=$(run_side parent "$parent" "$pair")
        c=$(run_side change "$change" "$pair")
    else
        c=$(run_side change "$change" "$pair")
        p=$(run_side parent "$parent" "$pair")
    fi
    verdict=$(awk -v p="$p" -v c="$c" -v better="$better" 'BEGIN {
        if (p == c) print "tie"
        else if ((c > p) == (better == "higher")) print "change"
        else print "parent" }')
    [ "$verdict" = change ] && wins=$((wins + 1))
    [ "$verdict" = tie ] && ties=$((ties + 1))
    echo "pair $pair: $metric parent $p  change $c  -> $verdict"
done
echo "change wins $wins of $pairs pairs on $metric ($better is better; $ties ties), seed $seed"

"$change/benchmark/target/release/nitro-benchmark" compare \
    "$out"/change/pair-*/run-*.json --against "$out"/parent/pair-*/run-*.json
