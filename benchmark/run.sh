#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness (a cargo package of
# its own, release profile copied from the root manifest) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--label L]   every workload, untraced:
#                                                           the end-to-end metrics
#   benchmark/run.sh --traced [--seed N] [--label L]        the traced run: the per-layer ledger
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                           one workload; the last line of
#                                                           output is the result as JSON
#   benchmark/run.sh agree A.json B.json                    compare two result files
#   benchmark/run.sh record-goldens                         rewrite goldens.json (seed 1)
#
# Exits non-zero when a build, a correctness check or `agree` fails.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/pcisim-benchmark" --bench-dir "$here" "$@"
