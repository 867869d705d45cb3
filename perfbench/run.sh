#!/usr/bin/env bash
# Builds `phc` and the benchmark program from source, then runs one
# benchmark: run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); metrics and traces go to .bench_out.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p ph_engine --bin phc >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --phc "$CARGO_TARGET_DIR/release/phc" "$@"
