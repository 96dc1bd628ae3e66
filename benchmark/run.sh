#!/usr/bin/env bash
# Builds redsim-benchmark and the redsim-serve daemon it drives from the
# repository's sources, then runs the benchmark from the repository root
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper-matrix --seed 0 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 0 --out target/benchmark/run.json
#
# The build goes to $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --manifest-path "$here/Cargo.toml" --bins >&2
# Flush what the build wrote, so its writeback does not run during the
# measurement.
sync
cd "$root"
exec "$target/release/redsim-benchmark" "$@"
