#!/usr/bin/env bash
# Prints the production-line count of each crate under crates/ and their
# total: the lines of every .rs file under the crate's src/ (src/bin
# included) above that file's first `#[cfg(test)]`, or all of them when it
# has none. It only prints and gates nothing. Run it from anywhere:
#
#   bash crates/bench/prod_lines.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
total=0
for src in crates/*/src; do
    lines=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }')
    printf '%-22s %6d\n' "$src" "$lines"
    total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"
