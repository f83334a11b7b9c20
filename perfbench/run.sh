#!/usr/bin/env bash
# Builds the `sealpaa` binary and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm_route --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "perfbench: run from the root of a sealpaa checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sealpaa-cli --bin sealpaa >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_GIT_REV=unknown
if [[ -e .git ]]; then
    PERFBENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
PERFBENCH_CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_GIT_REV PERFBENCH_CPUS

exec "$CARGO_TARGET_DIR/release/perfbench" --sealpaa "$CARGO_TARGET_DIR/release/sealpaa" "$@"
