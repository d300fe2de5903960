#!/usr/bin/env bash
# The refactoring oracle as one command: regenerate the seven quick-scale
# BENCH files and compare each, byte for byte, with its checked-in
# baseline. The BENCH JSON is byte-deterministic, so a change that is
# meant to leave behaviour alone must leave every file identical; the
# first one that differs is named and the exit status is 1. The
# regenerated files stay in the printed directory for a diff.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$(mktemp -d)"
for id in rebalance recovery scenario_diurnal scenario_skewdrift \
	scenario_burstcrash scenario_chaos scenario_blackout; do
	go run ./cmd/pioexp -exp "$id" -quick -json "$out" >/dev/null
	if ! cmp "ci/baselines/BENCH_$id.json" "$out/BENCH_$id.json"; then
		echo "check_baselines: BENCH_$id.json differs from ci/baselines (regenerated copy in $out)" >&2
		exit 1
	fi
done
rm -rf "$out"
echo "check_baselines: all seven BENCH files byte-identical to ci/baselines"
