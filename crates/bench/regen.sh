#!/usr/bin/env bash
# Regenerates every simulated table in EXPERIMENTS.md from the binary that
# computes it. A generated block is the lines between
#
#   <!-- exp: <binary> [args] -->
#   <!-- /exp -->
#
# and holds that binary's stdout at default scale, verbatim, in a `text`
# fence. Takes no flags; run it from anywhere:
#
#   bash crates/bench/regen.sh && git diff --exit-code EXPERIMENTS.md
#
# A binary that exits non-zero (a claim's shape did not hold) stops the
# script before EXPERIMENTS.md is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
cargo build --release --quiet -p ra-bench
bin_dir="${CARGO_TARGET_DIR:-target}/release"

doc=EXPERIMENTS.md
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
in_block=0
while IFS= read -r line || [[ -n $line ]]; do
    if [[ $in_block == 1 ]]; then
        [[ $line == "<!-- /exp -->" ]] || continue
        in_block=0
    elif [[ $line =~ ^\<!--\ exp:\ (.+)\ --\>$ ]]; then
        read -r -a cmd <<< "${BASH_REMATCH[1]}"
        echo "regenerating: ${cmd[*]}" >&2
        table="$("$bin_dir/${cmd[0]}" "${cmd[@]:1}")"
        printf '%s\n```text\n%s\n```\n' "$line" "$table" >> "$out"
        in_block=1
        continue
    fi
    printf '%s\n' "$line" >> "$out"
done < "$doc"
if [[ $in_block == 1 ]]; then
    echo "$doc: a <!-- exp: --> block has no <!-- /exp -->" >&2
    exit 1
fi
cp "$out" "$doc"
