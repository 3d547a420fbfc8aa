#!/usr/bin/env bash
# Builds the benchmark offline in release mode and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash resbench/run.sh --workload solve --seed 1 --seconds 10 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build). Build output
# goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/resbench" "$@"
