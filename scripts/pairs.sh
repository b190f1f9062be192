#!/usr/bin/env bash
# pairs.sh measures one benchmark metric on alternating parent/change
# pairs and prints the verdict of the choosing-metrics rule for
# claiming a gain: the change wins at least nine tenths of the pairs
# (ties count for neither side) and the two medians differ, in the
# metric's better direction, by more than the parent's interquartile
# range. Quartiles are Python's statistics.quantiles(n=4).
#
#   scripts/pairs.sh PARENT WORKLOAD [N [SEED [METRIC]]]
#   make pairs PARENT=<rev> WORKLOAD=<name> N=10 SEED=<first>
#
# The parent is the committed tree at PARENT, exported with git archive
# under .bench_build/pairs/parent for the length of the script (an
# archive, not a worktree, so nothing is registered in .git); the change
# is the working tree as it is. Pair i runs both sides on seed SEED+i for 16 s each, the parent
# first when i is even and the change first when it is odd. Every run
# goes through benchmark/run.sh of its own tree; nothing under
# benchmark/ is edited. Each run's JSON line is kept in
# .bench_build/pairs/runs.jsonl. A run that is not correct or that
# failed a call stops the script.
#
# After the verdict comes the must-not-move table: every end-to-end
# metric of BENCHMARK.json, read from the same runs, as parent median
# -> change median, the change in percent and the metric's bound. A row
# whose parent or change IQR exceeds the bound (as a share of that
# side's median) is unresolved: these pairs cannot tell a move of the
# bound's size from noise (choosing-metrics §6.5), unless every change
# run reads better than every parent run. A resolved row moved the
# worse way by more than its bound is marked OUT OF BOUND.
set -euo pipefail
parent=${1:?usage: pairs.sh PARENT WORKLOAD [N [SEED [METRIC]]]}
workload=${2:?usage: pairs.sh PARENT WORKLOAD [N [SEED [METRIC]]]}
n=${3:-10}
seed=${4:-1}
metric=${5:-txn_per_s}
seconds=16

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
rm -rf "$out/parent"
mkdir -p "$out/parent"
# The export is a second copy of the tree: gone on exit, so that nothing
# that walks the checkout (make loc, make lint) counts it.
trap 'rm -rf "$out/parent"' EXIT
git -C "$root" archive "$parent" | tar -x -C "$out/parent"
log="$out/runs.jsonl"
: >"$log"

better=higher
case $metric in lat_* | setup_*) better=lower ;; esac

# run SIDE SEED prints the metric of one run of SIDE's tree.
run() {
	local dir=$root line value
	[ "$1" = parent ] && dir=$out/parent
	line=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seconds "$seconds" --seed "$2" 2>/dev/null | tail -n 1)
	printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$2" "$line" >>"$log"
	case $line in *'"correct":true,'*'"failed":0,'*) ;; *)
		echo "pairs: $1 run on seed $2 is not clean: $line" >&2
		exit 1
		;;
	esac
	value=$(printf '%s' "$line" | sed -n "s/.*\"$metric\":{\"value\":\([-0-9.e+]*\).*/\1/p")
	[ -n "$value" ] || { echo "pairs: no $metric in: $line" >&2; exit 1; }
	echo "$value"
}

p=() c=()
for ((i = 0; i < n; i++)); do
	s=$((seed + i))
	order="parent change"
	((i % 2 == 0)) || order="change parent"
	for side in $order; do
		v=$(run "$side" "$s")
		if [ "$side" = parent ]; then p+=("$v"); else c+=("$v"); fi
	done
	echo "pair $((i + 1))/$n seed $s: parent ${p[i]} change ${c[i]}" >&2
done

printf '%s %s\n' "${p[*]}" "${c[*]}" | awk -v n="$n" -v better="$better" -v metric="$metric" -v workload="$workload" '
function quart(x, k,   j, d) { # statistics.quantiles(n=4), method "exclusive", on sorted x[1..n]
	j = int(k * (n + 1) / 4); d = k * (n + 1) - 4 * j
	if (j < 1) j = 1; if (j > n - 1) { j = n - 1; d = 4 }
	return (x[j] * (4 - d) + x[j + 1] * d) / 4
}
function sorted(src, dst,   i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
{
	for (i = 1; i <= n; i++) { p[i] = $i; c[i] = $(n + i) }
	wins = 0
	printf "%s %s, %d pairs (%s is better)\n", workload, metric, n, better
	for (i = 1; i <= n; i++) {
		d = (c[i] - p[i]) / p[i] * 100
		won = (better == "higher") ? c[i] > p[i] : c[i] < p[i]
		wins += won
		printf "  pair %2d: parent %12.4f  change %12.4f  %+7.2f%%%s\n", i, p[i], c[i], d, won ? "  win" : ""
	}
	sorted(p, ps); sorted(c, cs)
	pq1 = quart(ps, 1); pm = quart(ps, 2); pq3 = quart(ps, 3)
	cq1 = quart(cs, 1); cm = quart(cs, 2); cq3 = quart(cs, 3)
	printf "  parent: median %.4f  quartiles %.4f .. %.4f  (IQR %.4f)\n", pm, pq1, pq3, pq3 - pq1
	printf "  change: median %.4f  quartiles %.4f .. %.4f  (IQR %.4f)\n", cm, cq1, cq3, cq3 - cq1
	gap = (better == "higher") ? cm - pm : pm - cm
	printf "  median gap %+.4f (%+.2f%% of the parent median), parent IQR %.4f; change wins %d of %d\n", gap, (cm - pm) / pm * 100, pq3 - pq1, wins, n
	ok = wins * 10 >= 9 * n && gap > pq3 - pq1
	print "  verdict: " (ok ? "GAIN (wins >= 9/10 of pairs and median gap > parent IQR)" : "no gain claimable")
}'

awk '
function quart(x, n, k,   j, d) { # as in the verdict above, on sorted x[1..n]
	j = int(k * (n + 1) / 4); d = k * (n + 1) - 4 * j
	if (j < 1) j = 1; if (j > n - 1) { j = n - 1; d = 4 }
	if (n == 1) return x[1]
	return (x[j] * (4 - d) + x[j + 1] * d) / 4
}
function sortn(x, n,   i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
}
FILENAME == ARGV[1] { # BENCHMARK.json: the end_to_end names, directions and bounds
	if ($0 ~ /"end_to_end"/) on = 1
	else if (on && $0 ~ /^  *\]/) on = 0
	if (!on) next
	if (match($0, /"name": *"[^"]*"/)) { v = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", v); sub(/"$/, "", v); names[++m] = v }
	if (match($0, /"better": *"[a-z]*"/)) better[names[m]] = ($0 ~ /higher/) ? "higher" : "lower"
	if (match($0, /"bound": *[0-9.]+/)) { v = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", v); bound[names[m]] = v }
	next
}
{ # runs.jsonl: one run per line
	side = ($0 ~ /^\{"side":"parent"/) ? "p" : "c"
	cnt[side]++
	for (i = 1; i <= m; i++) if (match($0, "\"" names[i] "\":\\{\"value\":[-0-9.e+]+")) {
		v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
		val[side, names[i], cnt[side]] = v + 0 # a number, or the sort compares strings
	}
}
END {
	printf "must not move (%d parent and %d change runs; IQR and bound as a share of the median):\n", cnt["p"], cnt["c"]
	printf "  %-14s %14s    %14s  %8s  %6s  %6s  %5s  %s\n", "metric", "parent median", "change median", "change", "p IQR", "c IQR", "bound", "status"
	for (i = 1; i <= m; i++) {
		name = names[i]
		for (s = 1; s <= 2; s++) {
			side = (s == 1) ? "p" : "c"
			delete x
			for (j = 1; j <= cnt[side]; j++) x[j] = val[side, name, j]
			sortn(x, cnt[side])
			lo[side] = x[1]; hi[side] = x[cnt[side]]
			med[side] = quart(x, cnt[side], 2)
			iqr[side] = med[side] ? (quart(x, cnt[side], 3) - quart(x, cnt[side], 1)) / med[side] : 0
		}
		d = med["p"] ? (med["c"] - med["p"]) / med["p"] : 0
		worse = (better[name] == "higher") ? -d : d
		status = "within"
		apart = (better[name] == "higher") ? lo["c"] > hi["p"] : hi["c"] < lo["p"]
		if (apart) status = "better in every run"
		else if (iqr["p"] > bound[name] || iqr["c"] > bound[name]) status = "unresolved"
		else if (worse > bound[name]) status = "OUT OF BOUND"
		printf "  %-14s %14.4f -> %14.4f  %+7.2f%%  %5.1f%%  %5.1f%%  %4.0f%%  %s\n", name, med["p"], med["c"], d * 100, iqr["p"] * 100, iqr["c"] * 100, bound[name] * 100, status
	}
}' "$root/BENCHMARK.json" "$log"
