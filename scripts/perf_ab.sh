#!/bin/sh
# perf_ab.sh measures a change against a parent revision with the
# repository benchmark (perfbench/run.sh, declared in BENCHMARK.json).
#
#   sh scripts/perf_ab.sh [-r rev] [-w workload] [-n pairs] [-s seed] [-t seconds]
#
#   -r  parent revision (default HEAD); the change is this checkout's
#       working tree
#   -w  perfbench workload (default sim-irregular)
#   -n  number of pairs (default 8)
#   -s  seed of the first pair (default 1001); pair i runs seed s+i on
#       both sides
#   -t  measured seconds per run (default 20)
#
# The parent is checked out once, as a detached git worktree under
# .bench_build/ab-<commit>, and reused by later invocations. Each pair
# runs both trees on the same seed, one after the other; even pairs run
# the parent first and odd pairs the change first, so a drift in host
# speed favours neither side. Every run's output is kept under
# .bench_build/ab-runs/, and the summary (go run ./scripts/perfab)
# prints per-metric medians, quartiles and how many pairs the change
# won. Run it from the repository root; it needs only sh, git and the
# Go toolchain. It exits non-zero when any run fails its correctness
# gates.
set -eu

rev=HEAD workload=sim-irregular pairs=8 seed=1001 seconds=20
while getopts r:w:n:s:t: opt; do
	case $opt in
	r) rev=$OPTARG ;;
	w) workload=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) seconds=$OPTARG ;;
	*)
		sed -n '2,24p' "$0" >&2
		exit 2
		;;
	esac
done

root=$(pwd)
commit=$(git rev-parse --verify "$rev^{commit}")
parent="$root/.bench_build/ab-$commit"
if [ ! -d "$parent" ]; then
	git worktree add --detach "$parent" "$commit" >&2
fi
out="$root/.bench_build/ab-runs/$workload-$(git rev-parse --short "$commit")-$(date +%Y%m%d%H%M%S)"
mkdir -p "$out"

status=0
i=0
while [ "$i" -lt "$pairs" ]; do
	s=$((seed + i))
	if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		dir=$root
		[ "$side" = parent ] && dir=$parent
		echo "perf_ab: pair $((i + 1))/$pairs seed $s $side" >&2
		if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$s" \
			--seconds "$seconds" --trace 0) >"$out/$s.$side.txt" 2>"$out/$s.$side.err"; then
			echo "perf_ab: $side run of seed $s failed; see $out/$s.$side.txt" >&2
			status=1
		fi
		last=$(tail -n 1 "$out/$s.$side.txt")
		case $last in
		'{'*) printf '%s\n' "$last" >"$out/$s.$side.json" ;;
		esac
	done
	i=$((i + 1))
done

echo "== $workload: parent $(git rev-parse --short "$commit") vs the working tree; runs in $out"
go run ./scripts/perfab -bench BENCHMARK.json "$out"
exit $status
