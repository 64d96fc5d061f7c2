#!/usr/bin/env bash
# One-command local gate: formatting, clippy, the lexlint static
# analysis pass, the full test suite, the benchmark package's tests
# and a one-second resume run of the benchmark. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

echo "==> lexlint"
# --fix-check also fails when a machine-applicable autofix is pending;
# the incremental cache (.lexlint-cache.json, git-ignored) makes repeat
# runs re-analyze only changed files.
cargo run -q -p lexlint -- check --fix-check

# The benchmark package is a workspace of its own that builds
# crates/runner, crates/lexlint and crates/resilience from source; its
# tests catch a change to their public API before a benchmark run does.
echo "==> lexcache-bench tests"
cargo test -q --release --offline --locked --manifest-path lexcache-bench/Cargo.toml

# End-to-end check of the journal and JSON read path: the benchmark
# exits 1 when any resumed grid differs from the uninterrupted sweep.
echo "==> resume smoke (lexcache-bench --workload resume)"
cargo run -q --release --offline --locked --manifest-path lexcache-bench/Cargo.toml -- \
    --workload resume --seed 1 --seconds 1 --trace 0

echo "==> cargo test"
cargo test -q --workspace --locked --offline

echo "==> all checks passed"
