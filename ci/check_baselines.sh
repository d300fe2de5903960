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
# Refresh after an intentional change:
#   go run ./cmd/pioexp -exp <id> -quick -json ci/baselines
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
if ((${#differ[@]} > 0)); then
	echo "check_baselines: ${#differ[@]} of ${#ids[@]} BENCH files differ from ci/baselines: ${differ[*]}" >&2
	exit 1
fi
echo "check_baselines: all ${#ids[@]} BENCH files byte-identical to ci/baselines"
