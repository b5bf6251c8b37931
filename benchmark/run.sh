#!/usr/bin/env bash
# Builds `minos-noded` (root workspace) and the benchmark (this package)
# into one target directory, then runs the benchmark with the arguments
# given. With no arguments: every workload, timed and traced, results in
# benchmark/results/latest.json.
#
#   benchmark/run.sh --workload tcp-ycsb-a --seed 7 --seconds 12 --trace 0
#   benchmark/run.sh --smoke
#   benchmark/run.sh --compare benchmark/results/seed-a.json benchmark/results/seed-b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the benchmark finds
# `minos-noded` beside itself. A relative CARGO_TARGET_DIR is relative to
# the caller's directory; cargo would read it relative to each manifest.
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p minos-cluster --bin minos-noded >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "$#" -eq 0 ]; then
    set -- --workload all --trace both --out "$here/results/latest.json"
fi
exec "$target/release/minos-benchmark" "$@"
