#!/usr/bin/env bash
# Build the daemon (from the repository's own workspace) and the benchmark,
# then run one workload. Run from the repository root:
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p socialtrust-server --bin socialtrust-server >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/socialtrust-server" "$@"
