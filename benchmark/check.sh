#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change by?
#
#   benchmark/check.sh [--quick] [--seed <n>]
#
# Runs all five workloads twice on the same code — the second pass in
# reverse order, so no workload always follows the same neighbour — and
# prints, for every end-to-end metric, the two values, their relative gap
# and the bound from BENCHMARK.json, and the share of failed requests,
# whose bound is 0. Exits 1 if a gap exceeds its bound, a request failed
# or an output check failed.
#
# --quick is a smoke test: one pass of 1/10-size repeats that asserts the
# output checks only (its timings are too short to mean anything).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

quick=0
seed=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) quick=1; shift ;;
        --seed) seed=(--seed "$2"); shift 2 ;;
        *) echo "usage: benchmark/check.sh [--quick] [--seed <n>]" >&2; exit 2 ;;
    esac
done

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=(mutex_sim_n16 mutex_mux_n32 forward_mux_n8 mutex_udp_n8 mutex_chaos_n8)
out="benchmark/out"
mkdir -p "$out"

run_pass() { # <pass> <seconds> <workload>...
    local pass="$1" secs="$2" w
    shift 2
    for w in "$@"; do
        echo "== pass $pass: $w" >&2
        benchmark/run.sh --workload "$w" --seconds "$secs" --trace 0 ${seed[@]+"${seed[@]}"} \
            | tail -n 1 > "$out/check-$pass-$w.json" || failed=1
    done
}

failed=0
if [[ "$quick" == 1 ]]; then
    run_pass quick "$(python3 -c "print($seconds / 10)")" "${workloads[@]}"
    [[ "$failed" == 0 ]] && echo "check.sh --quick: every output check holds"
    exit "$failed"
fi

reversed=()
for w in "${workloads[@]}"; do reversed=("$w" "${reversed[@]}"); done
run_pass 1 "$seconds" "${workloads[@]}"
run_pass 2 "$seconds" "${reversed[@]}"

python3 - "$out" "${workloads[@]}" <<'EOF' || failed=1
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
# A set-up of microseconds moves by tens of percent between two reads of
# the clock: a gap this small in absolute terms is not a regression.
SETUP_FLOOR_S = 0.001
worst = False
print(f"{'workload':16} {'metric':13} {'pass 1':>14} {'pass 2':>14} {'gap':>8} {'bound':>7}")
for w in workloads:
    a, b = (json.load(open(f"{out}/check-{p}-{w}.json")) for p in (1, 2))
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        gap = abs(y - x) / x if x else float("inf")
        over = gap > bound and not (name == "setup_s" and abs(y - x) < SETUP_FLOOR_S)
        worst |= over
        print(f"{w:16} {name:13} {x:14.6g} {y:14.6g} {gap:8.2%} {bound:7.0%}{'  OVER' if over else ''}")
    # Failures are the result line's own counts; their bound is 0, absolute.
    x, y = (r["failed"] / r["attempted"] for r in (a, b))
    over = max(x, y) > 0 or not (a["correct"] and b["correct"])
    worst |= over
    print(f"{w:16} {'fail_share':13} {x:14.6g} {y:14.6g} {max(x, y):8.6g} {'0 abs':>7}{'  OVER' if over else ''}")
sys.exit(int(worst))
EOF
exit "$failed"
