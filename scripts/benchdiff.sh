#!/bin/sh
# Compares fresh benchmark JSON (written by scripts/bench.sh) against a
# committed baseline and fails on throughput regressions: any *_per_sec
# metric dropping more than BENCHDIFF_THRESHOLD percent (default 20) below
# its baseline value fails, as does a benchmark disappearing entirely.
#
# When the fresh file carries the query-path benchmarks, machine-independent
# ratio gates are also enforced (unlike the absolute comparison, which
# assumes the baseline was recorded on comparable hardware):
#   - forward >= 2x tape queries/sec (the forward-only rewrite's contract)
#   - prefiltered >= 1.3x forward queries/sec (the asymptotic-cost
#     pre-filter's contract; measured ~2x, gated with headroom for noisy
#     shared runners)
#   - the pre-filter must keep pruning: pruned_frac >= 0.5 on the
#     prefiltered benchmark fixture
#
# When the fresh file carries the partitioned-kernel benchmarks, one more
# ratio gate applies:
#   - partitioned SpMM >= 1.2x the best single-format plan (CSR or BCSR) on
#     the skewed fixture (the composable-format contract; measured ~1.4x,
#     gated with headroom for noisy shared runners)
#
# POSIX shell + awk only, no jq.
#
# Usage: scripts/benchdiff.sh baseline.json fresh.json [baseline fresh ...]
set -u
cd "$(dirname "$0")/.."

threshold=${BENCHDIFF_THRESHOLD:-20}

if [ $# -lt 2 ] || [ $(($# % 2)) -ne 0 ]; then
	echo "usage: $0 baseline.json fresh.json [baseline fresh ...]" >&2
	exit 2
fi

status=0
while [ $# -ge 2 ]; do
	baseline=$1
	fresh=$2
	shift 2
	if [ ! -f "$baseline" ]; then
		echo "benchdiff: missing baseline $baseline" >&2
		status=1
		continue
	fi
	if [ ! -f "$fresh" ]; then
		echo "benchdiff: missing fresh results $fresh" >&2
		status=1
		continue
	fi
	echo "==> benchdiff $fresh vs $baseline (threshold ${threshold}%)"
	awk -v thr="$threshold" -v basefile="$baseline" -v freshfile="$fresh" '
	FNR == 1 { pass++ }
	/"name"/ {
		line = $0
		if (match(line, /"name": "[^"]+"/) == 0) next
		name = substr(line, RSTART + 9, RLENGTH - 10)
		# Every *_per_sec field on the line becomes one tracked metric.
		rest = line
		while (match(rest, /"([A-Za-z0-9_]+_per_sec|pruned_frac)": [0-9.eE+-]+/)) {
			kv = substr(rest, RSTART, RLENGTH)
			rest = substr(rest, RSTART + RLENGTH)
			sep = index(kv, "\": ")
			key = substr(kv, 2, sep - 2)
			val = substr(kv, sep + 3) + 0
			# pruned_frac is a fraction, not a throughput: it feeds the
			# ratio gates below, never the percent-regression floor.
			if (key == "pruned_frac") { if (pass == 2) frac[name] = val }
			else if (pass == 1) base[name "." key] = val
			else fresh[name "." key] = val
		}
	}
	END {
		bad = 0
		for (k in base) {
			if (!(k in fresh)) {
				printf "FAIL %s: present in %s but missing from %s\n", k, basefile, freshfile
				bad = 1
				continue
			}
			floor = base[k] * (1 - thr / 100)
			if (fresh[k] < floor) {
				printf "FAIL %s: %.4g below regression floor %.4g (baseline %.4g, -%d%%)\n",
					k, fresh[k], floor, base[k], thr
				bad = 1
			} else {
				printf "ok   %s: %.4g (baseline %.4g)\n", k, fresh[k], base[k]
			}
		}
		fwd = fresh["BenchmarkSearchQueryForward.queries_per_sec"]
		tape = fresh["BenchmarkSearchQueryTape.queries_per_sec"]
		if (fwd > 0 && tape > 0) {
			if (fwd < 2 * tape) {
				printf "FAIL query-path speedup: forward %.4g q/s is %.2fx tape %.4g q/s, contract requires >= 2x\n",
					fwd, fwd / tape, tape
				bad = 1
			} else {
				printf "ok   query-path speedup: forward %.4g q/s = %.2fx tape %.4g q/s\n", fwd, fwd / tape, tape
			}
		}
		pq = fresh["BenchmarkSearchQueryPrefiltered.queries_per_sec"]
		if (fwd > 0 && pq > 0) {
			if (pq < 1.3 * fwd) {
				printf "FAIL pre-filter speedup: prefiltered %.4g q/s is %.2fx forward %.4g q/s, contract requires >= 1.3x\n",
					pq, pq / fwd, fwd
				bad = 1
			} else {
				printf "ok   pre-filter speedup: prefiltered %.4g q/s = %.2fx forward %.4g q/s\n", pq, pq / fwd, fwd
			}
		}
		part = fresh["BenchmarkPartSpMMPartitioned.runs_per_sec"]
		csr = fresh["BenchmarkPartSpMMSingleCSR.runs_per_sec"]
		bcsr = fresh["BenchmarkPartSpMMSingleBCSR.runs_per_sec"]
		best = (csr > bcsr) ? csr : bcsr
		if (part > 0 && best > 0) {
			if (part < 1.2 * best) {
				printf "FAIL partitioned speedup: %.4g runs/s is %.2fx best single format %.4g runs/s, contract requires >= 1.2x\n",
					part, part / best, best
				bad = 1
			} else {
				printf "ok   partitioned speedup: %.4g runs/s = %.2fx best single format %.4g runs/s\n", part, part / best, best
			}
		}
		if ("BenchmarkSearchQueryPrefiltered" in frac) {
			pf = frac["BenchmarkSearchQueryPrefiltered"]
			if (pf < 0.5) {
				printf "FAIL pre-filter coverage: pruned_frac %.4f below 0.5 floor\n", pf
				bad = 1
			} else {
				printf "ok   pre-filter coverage: pruned_frac %.4f\n", pf
			}
		}
		exit bad
	}
	' "$baseline" "$fresh" || status=1
done

if [ "$status" -eq 0 ]; then
	echo "benchdiff passed"
else
	echo "benchdiff failed" >&2
fi
exit $status
