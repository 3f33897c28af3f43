#!/usr/bin/env bash
# Build the benchmark, and the repository it links against, from source,
# then run it with the given arguments. Run from the repository root:
#
#   bash roambench/run.sh --workload fleet-population --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; the benchmark's result is the last line
# of stdout. The benchmark runs as a child, not through `exec`: it reads
# the peak RSS of its own children (the fleet workers), and an exec'd
# process would inherit the compiler's from the build.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
"${CARGO_TARGET_DIR:-$here/target}/release/roambench" "$@"
