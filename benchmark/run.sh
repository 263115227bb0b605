#!/usr/bin/env bash
# Build + run + exit code in one line, from any directory. Arguments go to
# `benchmark run` (none: all five workloads, both passes). Exits non-zero
# when the build, a run or any correctness check fails.
exec cargo run --release --quiet --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- run "$@"
