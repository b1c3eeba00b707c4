#!/usr/bin/env bash
# A/A check: benchmark/aa.sh N [--seed-base B] runs two interleaved sets of
# N untraced runs per workload of the same build and prints, per workload
# and end-to-end metric, both sets' medians and quartiles and how far the
# second median is from the first, against the metric's bound. Exits
# non-zero on a breach. N = 10 takes about 45 minutes.
set -euo pipefail
runs="${1:?usage: benchmark/aa.sh <runs per set> [--seed-base <n>]}"
shift
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" aa --runs "$runs" "$@"
