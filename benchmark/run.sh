#!/usr/bin/env bash
# The benchmark's one command. Builds the `wire_e2e` binary from source
# (offline, release) and runs it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs N] [--out DIR]
#       every workload, untraced then traced; prints every metric
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh --compare A/ B/
#       compares two result sets against the benchmark's bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wire_e2e" "$@"
