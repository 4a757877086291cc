#!/usr/bin/env bash
# Runs N full sets of the benchmark (every workload, each in its own
# process) and writes each set to $RESULTS/<rev>-<i>.json (default
# RESULTS=e2ebench/results). Further arguments go to every set. Run it
# from the root of a checkout:
#
#   bash e2ebench/run.sh 10                     # ten sets at the default seeds
#   bash e2ebench/run.sh 1 -trace 1             # one per-layer set
#   RESULTS=/tmp/a bash e2ebench/run.sh 5 -seed 7
#
# Compare two directories of sets with
#
#   bash e2ebench/bench.sh -compare e2ebench/results/a e2ebench/results/b
set -euo pipefail

n=${1:-1}
shift || true
results=${RESULTS:-e2ebench/results}
rev=$(git describe --always --dirty 2>/dev/null || echo local)
mkdir -p "$results"
status=0
for i in $(seq 1 "$n"); do
	bash e2ebench/bench.sh -rev "$rev" -o "$results/$rev-$i.json" "$@" || status=1
done
exit $status
