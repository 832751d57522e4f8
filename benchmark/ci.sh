#!/bin/sh
# What a CI job would run (ready to be wired into .github/workflows/ci.yml by
# a later change): build, package tests, a --quick smoke run of every
# workload, and the name-set check between the binary and BENCHMARK.json.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
manifest="$here/Cargo.toml"

cargo build --release --offline --manifest-path "$manifest"
# The package tests include: printed names == names declared in BENCHMARK.json.
cargo test --release --offline --manifest-path "$manifest"
ledger="${CARGO_TARGET_DIR:-$here/target}/release/ledger"

# Smoke: every workload, every pass, tiny sizes. Exits non-zero on any
# correctness violation (divergent repeats, broken pool invariants, failed
# operations, replay mismatch, a metric without a value).
"$ledger" run --quick

# Name-set check from the outside, for readers who do not trust the unit
# test: every name `ledger names` prints appears in BENCHMARK.json and the
# counts agree.
json="$here/../BENCHMARK.json"
"$ledger" names | while read -r kind name _; do
    grep -q "\"name\": \"$name\"" "$json" || {
        echo "$kind $name is not declared in BENCHMARK.json" >&2
        exit 1
    }
done
printed=$("$ledger" names | wc -l)
declared=$(grep -c '"name": ' "$json")
[ "$printed" -eq "$declared" ] || {
    echo "ledger prints $printed names, BENCHMARK.json declares $declared" >&2
    exit 1
}
echo "ci.sh: ok"
