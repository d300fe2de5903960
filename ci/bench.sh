#!/usr/bin/env bash
# Run benchmark/run.sh without leaving a process behind. run.sh builds
# with its own XDG_CONFIG_HOME (.bench_build/config), where Go starts a
# detached telemetry sidecar on the first build of a fresh checkout; this
# wrapper turns telemetry off there first, bounds the run with a timeout,
# and then fails if any benchmark, build, test or telemetry process is
# still running. Arguments pass through to run.sh unchanged:
#
#   bash ci/bench.sh -workload rebalance_drift -smoke -trace 1
#
# Exits with run.sh's status, or 1 when a process was left running.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build/config/go/telemetry"
echo off >"$root/.bench_build/config/go/telemetry/mode"
status=0
timeout 1200 bash "$root/benchmark/run.sh" "$@" || status=$?
# The shells that started this script are not leftovers, though their
# command lines may name a pattern word (telemetry, go test).
ancestors=" "
pid=$$
while [[ -n "$pid" && "$pid" != 0 ]]; do
	ancestors+="$pid "
	pid="$(ps -o ppid= -p "$pid" | tr -d ' ')"
done
left="$(ps -eo pid,args | grep -E '[p]iobench|[p]ioexp|[.]test |[t]elemetry|[g]o (build|run|test)' |
	awk -v skip="$ancestors" 'index(skip, " " $1 " ") == 0' || true)"
if [[ -n "$left" ]]; then
	echo "bench.sh: processes left running:" >&2
	echo "$left" >&2
	exit 1
fi
exit "$status"
