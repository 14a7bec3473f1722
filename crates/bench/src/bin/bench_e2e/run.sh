#!/usr/bin/env bash
# Builds the `halk` daemon and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/bench_e2e/run.sh --workload halk_8k --seed 1 --seconds 25 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# .bench_build), so the benchmark finds `halk` next to its own executable.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p halk-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
