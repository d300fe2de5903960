#!/usr/bin/env bash
# The one gate on ci/baselines: regenerate the quick-scale BENCH files
# listed in ids and compare each, byte for byte, with its checked-in copy. The
# experiments run on simulated time, so the JSON is byte-deterministic:
# a change that is meant to leave behaviour alone leaves every file
# identical, and a change that moves a number must commit the
# regenerated file and explain the move. Every file is compared before
# the script exits; each one that differs is named with its `diff -u`,
# and the exit status is 1 if any differ.
#
# Then it runs the six benchmark workloads at seed 1 with a one-second
# budget (a fixed op count, not a stopwatch) and compares their simulated
# metrics — the `workload metric value unit` lines whose metric
# ci/sim_fields.txt lists — with ci/baselines/SIM_bench.txt in the same
# way; each differing line names the workload and metric that moved.
#
# Refresh after an intentional change:
#   go run ./cmd/pioexp -exp <id> -quick -json ci/baselines
#   bash ci/bench.sh -seed 1 -seconds 1 -trace 1 |
#     awk 'NR == FNR { if (!/^#/ && NF) keep[$1]; next } !/^#/ && ($2 in keep)' \
#       ci/sim_fields.txt - >ci/baselines/SIM_bench.txt
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
ids=(rebalance recovery scenario_diurnal scenario_skewdrift
	scenario_burstcrash scenario_chaos scenario_blackout fig13a fig13b)
differ=()
for id in "${ids[@]}"; do
	go run ./cmd/pioexp -exp "$id" -quick -json "$out" >/dev/null
	if ! cmp -s "ci/baselines/BENCH_$id.json" "$out/BENCH_$id.json"; then
		differ+=("BENCH_$id.json")
		diff -u "ci/baselines/BENCH_$id.json" "$out/BENCH_$id.json" || true
	fi
done
sim_filter='NR == FNR { if (!/^#/ && NF) keep[$1]; next } !/^#/ && ($2 in keep)'
bash ci/bench.sh -seed 1 -seconds 1 -trace 1 | awk "$sim_filter" ci/sim_fields.txt - >"$out/SIM_bench.txt"
if ! cmp -s ci/baselines/SIM_bench.txt "$out/SIM_bench.txt"; then
	differ+=(SIM_bench.txt)
	diff -u ci/baselines/SIM_bench.txt "$out/SIM_bench.txt" || true
fi
files=$((${#ids[@]} + 1))
if ((${#differ[@]} > 0)); then
	echo "check_baselines: ${#differ[@]} of $files files differ from ci/baselines: ${differ[*]}" >&2
	exit 1
fi
echo "check_baselines: all $files files byte-identical to ci/baselines"
