#!/usr/bin/env bash
# Run fig binaries with BYOM_BENCH_QUICK=1 and diff their stdout against the
# committed golden files in crates/bench/golden/<bin>.txt. Only fig_resilience
# reads BYOM_BENCH_QUICK (it shrinks that sweep); every other golden is a
# full-size run.
#
#   crates/bench/check_golden.sh [<bin>...]          # exit 1 on any difference
#   crates/bench/check_golden.sh --bless [<bin>...]  # rewrite the golden files
#
# With no binary named, every binary in crates/bench/src/bin is run.
# fig09's Figure 9a table reports wall-clock inference time, so it is cut
# from every output before the comparison.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
golden="$root/crates/bench/golden"
bless=0
if [[ "${1:-}" == "--bless" ]]; then
    bless=1
    shift
fi
if [[ $# -eq 0 ]]; then
    for src in "$root"/crates/bench/src/bin/*.rs; do
        set -- "$@" "$(basename "$src" .rs)"
    done
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for bin in "$@"; do
    BYOM_BENCH_QUICK=1 cargo run --release --quiet \
        --manifest-path "$root/Cargo.toml" -p byom_bench --bin "$bin" \
        | sed '/^== Figure 9a/,/^Paper reference/d' >"$out"
    if [[ $bless -eq 1 ]]; then
        cp "$out" "$golden/$bin.txt"
        echo "blessed $bin"
    elif diff -u "$golden/$bin.txt" "$out"; then
        echo "ok $bin"
    else
        echo "MISMATCH $bin: re-bless with --bless only if the change is intended"
        status=1
    fi
done
exit $status
