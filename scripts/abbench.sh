#!/usr/bin/env bash
# abbench.sh — interleaved A/B of the perfbench end-to-end metrics between
# two commits: the comparison a performance change quotes.
#
# Each commit is exported with `git archive` into its own directory, and
# that tree's own perfbench/run.sh builds and runs it, unchanged, so both
# sides run exactly the benchmark code they were committed with. For every
# workload the script runs PAIRS pairs and alternates which side goes first
# (odd pairs run BASE first). It then prints, per end-to-end metric, each
# side's median and quartiles, the change in the median, and how many pairs
# the change won (ties count for neither side). Per side it then prints how
# many runs completed cleanly, how many failed, the failed-request count of
# the clean runs and the distinct fingerprints. A run is clean only if it
# exited zero and ended with perfbench's "metric error_rate = R (N of M
# requests failed)" line; a run that failed its output check, crashed or
# printed no such line is a failed run. Failed runs print no metrics, so
# they drop out of the medians: read the clean-run count beside them.
#
# Usage (from anywhere inside the repository):
#   scripts/abbench.sh [BASE [CHANGE]]
#     BASE    commit to compare against (default: CHANGE^)
#     CHANGE  commit under test (default: HEAD). To measure uncommitted work,
#             stage it and pass "$(git stash create)".
# Env:
#   PAIRS        pairs per workload (default 10)
#   WORKLOADS    space-separated workloads (default: all in BENCHMARK.json)
#   SEED         perfbench --seed (default 1)
#   ABDIR        directory for the two trees and the run logs (default: a
#                new temporary directory). It is kept, so the raw logs can be
#                re-read; delete it when done.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

CHANGE="$(git rev-parse --verify "${2:-HEAD}^{commit}")"
BASE="$(git rev-parse --verify "${1:-$CHANGE^}^{commit}")"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-1}"
ABDIR="${ABDIR:-$(mktemp -d -t abbench.XXXXXX)}"

# Run length, metric names and directions come from the change's
# BENCHMARK.json, so every run is the benchmark's own length.
spec="$(git show "$CHANGE:BENCHMARK.json")"
seconds="$(awk '/"run_seconds"/ {s = $0; sub(/.*"run_seconds": */, "", s); sub(/[^0-9.].*/, "", s); print s; exit}' <<<"$spec")"
[ -n "$seconds" ] || { echo "abbench: no run_seconds in BENCHMARK.json" >&2; exit 1; }
if [ -z "${WORKLOADS:-}" ]; then
	WORKLOADS="$(awk '/"workloads"/ {on = 1} on && /"name"/ {
		match($0, /"name": *"[^"]*"/); s = substr($0, RSTART, RLENGTH)
		sub(/"name": *"/, "", s); sub(/"$/, "", s); print s
	} on && /\]/ {exit}' <<<"$spec" | tr '\n' ' ')"
fi
metrics="$(awk '/"end_to_end"/ {on = 1} on && /"name"/ {
	n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
	b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
	print n, b
} on && /\]/ {exit}' <<<"$spec")"

mkdir -p "$ABDIR/base" "$ABDIR/change" "$ABDIR/runs"
git archive "$BASE" | tar -x -C "$ABDIR/base"
git archive "$CHANGE" | tar -x -C "$ABDIR/change"
echo ">> base $BASE, change $CHANGE, $PAIRS pairs, seed $SEED, $seconds s per run; logs in $ABDIR/runs" >&2

run() { # side workload pair
	local log="$ABDIR/runs/$2.$1.$3.txt"
	echo ">> $2 pair $3: $1" >&2
	if ! (cd "$ABDIR/$1" && bash perfbench/run.sh --workload "$2" --seed "$SEED" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "abbench: exited non-zero" >>"$log"
		echo ">> $2 pair $3: $1 exited non-zero, see $log" >&2
	fi
}

for w in $WORKLOADS; do
	for ((i = 1; i <= PAIRS; i++)); do
		if ((i % 2)); then
			run base "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run base "$w" "$i"
		fi
	done
done

# value side workload pair metric: the metric's value from one run's
# "metric NAME = VALUE UNIT" line; empty when the run printed none.
value() {
	awk -v m="$4" '$1 == "metric" && $2 == m && $3 == "=" {print $4; exit}' \
		"$ABDIR/runs/$2.$1.$3.txt"
}

# failures side workload pair: the failed-request count N of a clean run;
# empty for a failed run (see the header).
failures() {
	awk '/^abbench: exited non-zero$/ || /output check failed/ {bad = 1}
		$1 == "metric" && $2 == "error_rate" && $3 == "=" && $6 == "of" &&
			$8 == "requests" && $9 == "failed)" {n = $5; sub(/^\(/, "", n)}
		END { if (!bad && n != "") print n }' "$ABDIR/runs/$2.$1.$3.txt"
}

# Median and quartiles by linear interpolation between order statistics,
# to four significant digits (whole numbers from 1000 up).
stats() {
	sort -g | awk '{x[NR] = $1}
		function q(p,  h, i) { h = 1 + (NR - 1) * p; i = int(h)
			return i >= NR ? x[NR] : x[i] + (h - i) * (x[i+1] - x[i]) }
		function f(v) { return sprintf(v >= 1000 ? "%.0f" : "%.4g", v) }
		END { if (NR) print f(q(0.5)), f(q(0.25)), f(q(0.75)) }'
}

for w in $WORKLOADS; do
	echo
	echo "== $w ($PAIRS pairs, seed $SEED, $seconds s per run)"
	printf '%-16s %-30s %-30s %9s %6s\n' metric "base median [q1, q3]" "change median [q1, q3]" delta won
	while read -r m better; do
		b=() c=() wins=0
		for ((i = 1; i <= PAIRS; i++)); do
			bv="$(value base "$w" "$i" "$m")" cv="$(value change "$w" "$i" "$m")"
			[ -n "$bv" ] && b+=("$bv")
			[ -n "$cv" ] && c+=("$cv")
			if [ -n "$bv" ] && [ -n "$cv" ] && awk -v b="$bv" -v c="$cv" -v d="$better" \
				'BEGIN { exit !(d == "lower" ? c < b : c > b) }'; then
				wins=$((wins + 1))
			fi
		done
		read -r bm bq1 bq3 <<<"$(printf '%s\n' "${b[@]}" | stats)" || true
		read -r cm cq1 cq3 <<<"$(printf '%s\n' "${c[@]}" | stats)" || true
		delta="$(awk -v b="${bm:-0}" -v c="${cm:-0}" 'BEGIN { if (b != 0) printf "%+.1f%%", 100 * (c - b) / b; else print "n/a" }')"
		printf '%-16s %-30s %-30s %9s %6s\n' "$m" "${bm:-?} [${bq1:-?}, ${bq3:-?}]" \
			"${cm:-?} [${cq1:-?}, ${cq3:-?}]" "$delta" "$wins/$PAIRS"
	done <<<"$metrics"
	for side in base change; do
		clean=0 failed=0
		for ((i = 1; i <= PAIRS; i++)); do
			n="$(failures "$side" "$w" "$i")"
			if [ -n "$n" ]; then
				clean=$((clean + 1)) failed=$((failed + n))
			fi
		done
		fps="$(cat "$ABDIR"/runs/"$w".$side.*.txt | grep -o 'fingerprint [0-9a-f]*' | sort -u | awk '{printf "%s ", $2}')"
		echo "$side: clean runs $clean/$PAIRS, failed runs $((PAIRS - clean)), failed requests in clean runs $failed; fingerprints: ${fps:-none}"
	done
done
