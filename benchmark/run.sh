#!/usr/bin/env bash
# Builds the benchmark (and the repository crates it links) in release
# mode, then runs it with the given arguments:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR (default: benchmark/target);
# traced runs also write their per-event spans under it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export LEDGER_OUT="$target/ledger-spans"
exec "$target/release/tep-ledger" "$@"
