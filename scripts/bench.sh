#!/usr/bin/env bash
# bench.sh — run the repo's benchmark suite with -benchmem and record the
# results as a machine-readable baseline.
#
# Two groups run with different benchtimes:
#   * figure/table benchmarks (package .): each iteration is one full
#     experiment, so -benchtime 1x keeps the run bounded;
#   * scheduler/stats/observability/nand/request-path/fleet-pump
#     microbenchmarks (internal/sim, internal/stats, internal/obs,
#     internal/nand, internal/ssd, internal/fleet): nanosecond-scale
#     operations that need wall-clock benchtime to settle.
#
# Benchmark names are recorded without the -N suffix go test appends when
# GOMAXPROCS is not 1, so a file recorded on a multi-core host stays
# comparable (by cmd/benchdiff) with one recorded at GOMAXPROCS=1. The
# header records gomaxprocs and nproc so the difference stays visible.
#
# Usage: scripts/bench.sh [output.json]
# Env:   BENCHTIME  figure/table benchtime   (default 1x)
#        MICROTIME  microbenchmark benchtime (default 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_3.json}"
BENCHTIME="${BENCHTIME:-1x}"
MICROTIME="${MICROTIME:-1s}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo ">> figure/table benchmarks (-benchtime $BENCHTIME)" >&2
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP" >&2
echo ">> scheduler/stats/observability/nand/request-path/fleet-pump microbenchmarks (-benchtime $MICROTIME)" >&2
go test -run '^$' -bench . -benchmem -benchtime "$MICROTIME" \
	./internal/sim/ ./internal/stats/ ./internal/obs/ ./internal/nand/ ./internal/ssd/ \
	./internal/fleet/ | tee -a "$TMP" >&2

GOVER="$(go env GOVERSION)"
CPU="$(awk -F': ' '/^cpu:/ {print $2; exit}' "$TMP")"
NPROC="$(nproc)"
# go test's default GOMAXPROCS is the usable CPU count.
PROCS="${GOMAXPROCS:-$NPROC}"

# Each benchmark line is "BenchmarkName-PROCS iters (value unit)+" — strip
# the suffix and fold the value/unit pairs into a metrics object keyed by
# unit.
{
	printf '{\n'
	printf '  "go_version": "%s",\n' "$GOVER"
	printf '  "cpu": "%s",\n' "$CPU"
	printf '  "gomaxprocs": %s,\n' "$PROCS"
	printf '  "nproc": %s,\n' "$NPROC"
	printf '  "benchtime": {"figures": "%s", "micro": "%s"},\n' "$BENCHTIME" "$MICROTIME"
	printf '  "benchmarks": [\n'
	awk -v procs="$PROCS" '
		/^Benchmark/ {
			name = $1
			if (procs != 1) sub("-" procs "$", "", name)
			if (sep) printf "%s", sep
			printf "    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", name, $2
			msep = ""
			for (i = 3; i < NF; i += 2) {
				printf "%s\"%s\": %s", msep, $(i+1), $i
				msep = ", "
			}
			printf "}}"
			sep = ",\n"
		}
		END { printf "\n" }
	' "$TMP"
	printf '  ]\n'
	printf '}\n'
} >"$OUT"

echo ">> wrote $OUT" >&2
