#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload per
# process. Run from the repo root:
#
#   benchmark/run.sh --workload mesh256_serial --seed 1 --trace 0
#
# Without --workload it runs all four, one after the other. The driver
# also passes --seconds <run_seconds of BENCHMARK.json>; the run length is
# fixed, and any other value is refused. The last line of each run's
# output is the result as one JSON object; the exit code is non-zero when
# an output was wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The root workspace's target directory is reused unless the caller names
# another, so the simulator crates are not compiled twice.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/ra-benchmark"

case " $* " in
*" --workload "* | " aa "*)
    exec "$bin" "$@"
    ;;
esac
status=0
for workload in mesh256_serial mesh256_par2 serve_memo_json serve_sweep_relay; do
    "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
