#!/usr/bin/env bash
# Determinism self-check. For every workload, two traced runs at one seed
# must print identical digest, count and model lines, and the held-out
# seed must pass every oracle with a different workload digest.
#
#   bash perfbench/determinism.sh [seed]     (run from the repository root)
set -euo pipefail

seed=${1:-7}
heldout=90210
tmp=.bench_build/determinism
mkdir -p "$tmp"
status=0
for w in fluid-analysis packet-incast packet-churn; do
	for tag in a b; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 1 >"$tmp/$w.$tag.out"
		grep -E '^# (digest|count|model) ' "$tmp/$w.$tag.out" >"$tmp/$w.$tag.exact"
	done
	if ! diff -u "$tmp/$w.a.exact" "$tmp/$w.b.exact"; then
		echo "FAIL $w: two runs at seed $seed differ" >&2
		status=1
	fi
	if ! bash perfbench/run.sh --workload "$w" --seed "$heldout" --seconds 1 --trace 0 >"$tmp/$w.heldout.out"; then
		echo "FAIL $w: held-out seed $heldout failed an oracle" >&2
		status=1
	fi
	d1=$(grep '^# digest workload ' "$tmp/$w.a.out")
	d2=$(grep '^# digest workload ' "$tmp/$w.heldout.out")
	if [ "$d1" = "$d2" ]; then
		echo "FAIL $w: held-out seed reproduces seed $seed's digest" >&2
		status=1
	fi
	echo "$w: seed $seed repeats exactly; held-out seed passes with ${d2##* }"
done
exit $status
