#!/usr/bin/env bash
# Compares perfbench's end-to-end metrics between two revisions in
# alternating pairs of runs:
#
#   scripts/perfab.sh <rev-a> <rev-b> <workload> <pairs>
#   scripts/perfab.sh HEAD~1 HEAD replay 10
#
# Both revisions are exported with git archive into a temporary
# directory outside the checkout (removed on exit), and each pair runs
#
#   bash perfbench/run.sh --workload <workload> --seconds 25 --trace 0
#
# once in each tree, a first in odd pairs and b first in even ones, so
# neither side always meets a warmer or a busier machine. Each tree
# builds its own perfbench into its own .bench_build/, and the first
# run of each side pays that build before its timed phase. Every run's
# metrics print as it finishes; at the end each metric gets its median
# and quartiles per side, and the number of pairs in which b read lower
# (better, for every metric perfbench declares) and higher.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 <rev-a> <rev-b> <workload> <pairs>" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4
case $pairs in
'' | *[!0-9]* | 0)
	echo "perfab: pairs must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for side in a b; do
	rev=$rev_a
	[ "$side" = b ] && rev=$rev_b
	commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
	mkdir "$tmp/$side"
	git -C "$repo" archive "$commit" | tar -x -C "$tmp/$side"
	echo "side $side: $rev ($commit)"
done

# runone side pair: one perfbench run, its metrics appended to
# $tmp/results as "side pair metric value" lines.
runone() {
	local side=$1 pair=$2 out="$tmp/$1.$2.out" status=0
	(cd "$tmp/$side" && bash perfbench/run.sh --workload "$workload" --seconds 25 --trace 0) \
		>"$out" 2>"$tmp/$side.$pair.err" || status=$?
	local last
	last=$(tail -n 1 "$out")
	case $last in
	'{'*) ;;
	*)
		echo "pair $pair side $side: perfbench exited $status without a result; stderr:" >&2
		cat "$tmp/$side.$pair.err" >&2
		exit 1
		;;
	esac
	[ "$status" -eq 0 ] || echo "pair $pair side $side: perfbench exited $status (wrong outputs)"
	# The result line is {"correct":..,"attempted":N,"failed":N,"metrics":{"name":{"value":X,..},..}}.
	{
		printf '%s\n' "$last" | grep -o '"\(attempted\|failed\)":[0-9]*' |
			sed 's/"\([a-z]*\)":\(.*\)/\1 \2/'
		printf '%s\n' "$last" | grep -o '"[a-z_0-9.]*":{"value":[-+0-9.eE]*' |
			sed 's/"\([^"]*\)":{"value":\(.*\)/\1 \2/'
	} | while read -r name value; do
		echo "$side $pair $name $value" >>"$tmp/results"
		printf '%s' " $name=$value"
	done | sed "s/^/pair $pair side $side:/"
	echo
}

for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		runone a "$pair"
		runone b "$pair"
	else
		runone b "$pair"
		runone a "$pair"
	fi
done

echo
echo "$workload, $pairs pairs, a=$rev_a b=$rev_b"
awk '
function sortv(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
}
# quantile of the sorted v[1..n], interpolating between ranks.
function q(v, n, p,    r, lo) {
	r = 1 + p * (n - 1)
	lo = int(r)
	if (lo >= n) return v[n]
	return v[lo] + (r - lo) * (v[lo + 1] - v[lo])
}
{
	val[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
	if ($2 > np) np = $2
}
END {
	printf "%-14s %30s %30s %s\n", "metric", "a median [q1, q3]", "b median [q1, q3]", "b lower/higher"
	for (k = 1; k <= nn; k++) {
		m = names[k]
		line = sprintf("%-14s", m)
		for (s = 1; s <= 2; s++) {
			side = s == 1 ? "a" : "b"
			n = 0
			delete v
			for (p = 1; p <= np; p++) if ((side, p, m) in val) v[++n] = val[side, p, m]
			sortv(v, n)
			line = line sprintf(" %30s", n ? sprintf("%.4g [%.4g, %.4g]", q(v, n, .5), q(v, n, .25), q(v, n, .75)) : "-")
		}
		lower = higher = 0
		for (p = 1; p <= np; p++) {
			if (!((("a", p, m) in val) && (("b", p, m) in val))) continue
			if (val["b", p, m] < val["a", p, m]) lower++
			if (val["b", p, m] > val["a", p, m]) higher++
		}
		print line sprintf(" %d/%d", lower, higher)
	}
}' "$tmp/results"
