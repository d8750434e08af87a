#!/usr/bin/env bash
# Lints the benchmark: rustfmt, clippy at -D warnings, and the repository's
# skewcheck pass. Skewcheck walks only `crates/*`, so the benchmark's
# sources are first staged into a scratch tree laid out as one crate.
# Run from the repository root.
set -euo pipefail
cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy --offline --release --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
stage=benchmark/target/lint-tree
rm -rf "$stage"
mkdir -p "$stage/crates/skewbench"
cp -r benchmark/Cargo.toml benchmark/src benchmark/tests "$stage/crates/skewbench/"
cargo run -q --offline -p xtask -- lint --root "$stage"
