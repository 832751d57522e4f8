#!/bin/sh
# Repeatability check: two sets of full runs of the SAME build and seed, back
# to back, then `ledger compare` — per workload x end-to-end metric the two
# medians, quartiles, the gap and the bound. Fails if any gap exceeds its
# bound, or if a simulated/count metric is not bit-identical across all runs.
#
#   sh benchmark/repeat.sh [runs-per-set (default 5)] [seed (default 42)]
#
# The table goes to stdout; REPEATABILITY.md is this script's output from the
# recording host. Takes about 2 x runs x 4 x 20 s.
set -eu
runs=${1:-5}
seed=${2:-42}
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out/A" "$out/B"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
ledger="${CARGO_TARGET_DIR:-$here/target}/release/ledger"

echo "# Repeatability on this host"
echo
echo "- date: $(date -u +%Y-%m-%dT%H:%MZ)"
echo "- nproc: $(nproc)"
echo "- cpu: $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)"
echo "- runs per set: $runs, seed $seed, \`--trace 0\`"
echo

for set in A B; do
    i=0
    while [ "$i" -lt "$runs" ]; do
        for w in paper_n3 large_pool scale_n64 tiered_tail; do
            "$ledger" run --workload "$w" --seed "$seed" --trace 0 \
                > "$out/$set/$w.$i.json"
        done
        i=$((i + 1))
    done
done

# How loud the host was: one traced run per workload carries the diagnostics.
echo "## Host noise while recording"
echo
echo "| workload | bench.host_ref_ms (min) | bench.host_ref_median_ms | bench.repeat_spread_frac |"
echo "|---|---|---|---|"
for w in paper_n3 large_pool scale_n64 tiered_tail; do
    "$ledger" run --workload "$w" --seed "$seed" --trace 1 --repeats 6 > "$out/$w.traced.txt"
    pick() { sed -n "s/^  $1 *\([^ ]*\) .*/\1/p" "$out/$w.traced.txt"; }
    echo "| $w | $(pick bench.host_ref_ms) | $(pick bench.host_ref_median_ms) | $(pick bench.repeat_spread_frac) |"
done
echo
echo "## Set A vs set B"
echo
"$ledger" compare "$out/A" "$out/B"
