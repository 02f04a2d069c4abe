#!/usr/bin/env bash
# Builds the shipped `sbf` binary and this benchmark from source, then runs
# the benchmark: `bash perfbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`, from the repository root.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" -p sbf-cli --bin sbf >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/sbfd-perfbench" --sbf "$target/release/sbf" "$@"
