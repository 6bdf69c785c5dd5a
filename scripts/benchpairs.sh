#!/bin/bash
# Paired benchmark runs, the rule bench/README.md asks every performance
# claim to follow, as one command:
#
#   scripts/benchpairs.sh <base-ref> [pairs=10] [first-seed=101] [workload]
#
# checks <base-ref> out into a git worktree under .bench_build/, runs the
# whole benchmark (bench/run.sh -out) on the base and on the working tree
# alternately — base first on odd pairs, head first on even ones, pair i on
# seed first-seed+i-1 — and ends with bench/run.sh -compare on the two
# record files (medians, spreads, bounds) and scripts/pairwins on the same
# two (the rule a claim is judged by: pairs won, and the median gain against
# the base's inter-quartile distance). Pick a first seed that was not used while the change was
# written. <base-ref> may also be a directory holding a checkout of the
# base (a clone, an extracted archive); it is then used as it is.
# With a [workload] only that workload runs (~1 min per pair instead of
# ~4): the quick loop for a change to one layer. The pairs a PR reports
# are still the all-workload ones. Run from the repository root.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: scripts/benchpairs.sh <base-ref> [pairs=10] [first-seed=101] [workload]" >&2
	exit 2
fi
base_ref=$1
pairs=${2:-10}
seed0=${3:-101}
only=()
if [ -n "${4:-}" ]; then
	only=(-workload "$4")
fi
head_dir=$(pwd)

if [ -d "$base_ref" ]; then
	base_dir=$(cd "$base_ref" && pwd)
	label=$(basename "$base_dir")
else
	label=$(git rev-parse --short "$base_ref")
	base_dir="$head_dir/.bench_build/base-$label"
	git worktree add --force --detach "$base_dir" "$base_ref" >/dev/null
	trap 'git worktree remove --force "$base_dir"' EXIT
fi

out="$head_dir/bench/out/pairs-$label${4:+-$4}"
mkdir -p "$out"
rm -f "$out/base.json" "$out/head.json"

run_side() { # <dir> <record file> <seed>
	(cd "$1" && bash bench/run.sh "${only[@]}" -seed "$3" -out "$2" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		echo "pair $i/$pairs seed $seed: base, head" >&2
		run_side "$base_dir" "$out/base.json" "$seed"
		run_side "$head_dir" "$out/head.json" "$seed"
	else
		echo "pair $i/$pairs seed $seed: head, base" >&2
		run_side "$head_dir" "$out/head.json" "$seed"
		run_side "$base_dir" "$out/base.json" "$seed"
	fi
done

status=0
bash bench/run.sh -compare "$out/base.json" "$out/head.json" | tee "$out/compare.txt" || status=$?
echo
go run ./scripts/pairwins "$out/base.json" "$out/head.json" | tee "$out/pairwins.txt"
exit "$status"
