#!/usr/bin/env bash
# Builds the benchmark and runs one workload pinned to one CPU:
#
#   benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#
# Unpinned, the same binary is bimodal on a small shared box (README.md),
# so the binary is re-executed under `taskset -c <highest allowed cpu>`.
# Where taskset is missing or refused, the run goes ahead unpinned, says
# so on stderr and the binary, which reads its own CPU mask, reports
# `bench.pinned 0`: the two kinds of number are never mixed silently.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="$target/release/snapstab-benchmark"

allowed="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null || true)"
cpu="${allowed##*[,-]}"
if [[ -n "$cpu" ]] && command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "run.sh: warning: cannot pin to a CPU (taskset missing or refused); running unpinned" >&2
exec "$bin" "$@"
