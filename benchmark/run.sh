#!/usr/bin/env bash
# Builds the benchmark and the shard server it spawns, then runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh compare <result_a.json> <result_b.json>
#
# Run it from the root of a checkout. Both binaries are built from this
# checkout's sources into $CARGO_TARGET_DIR (default: benchmark/target);
# results and traces go to benchmark/out. Everything the binary prints on
# standard output is passed through, so its last line is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to standard error: standard output is the result's.
cargo build --release --offline --quiet --manifest-path "$manifest" --bin slicebench >&2
cargo build --release --offline --quiet --manifest-path "$manifest" -p ms-net --bin shard_server >&2

case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release" ;;
esac
if [ "${1:-}" = compare ]; then
  exec "$bin/slicebench" "$@"
fi
exec "$bin/slicebench" --out "$here/out" --shard-bin "$bin/shard_server" "$@"
