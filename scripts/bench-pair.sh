#!/bin/sh
# Paired benchmark of this tree against a checkout of its parent, the way
# the driver that gates a PR measures it: bench/ built once in each tree,
# the two binaries run alternately in the driver's form
# (--workload w --seed s --seconds t --trace 0), one pair per seed, the
# order within a pair alternating so that neither side always runs on a
# warm or a cold machine. Prints, per workload and end-to-end metric of
# BENCHMARK.json, the parent's median [q1, q3] -> the change's median,
# the difference in per cent and in how many pairs the change was ahead.
# Exits non-zero when a run failed or when events_total or a sim_* metric
# differs within a pair: then the two trees did different work and their
# speeds are not comparable. A pair that differs only in the report
# digest did the same work and reports it differently (a report field
# added, say): that prints a note and does not fail.
#
# usage: bench-pair.sh PARENT [PAIRS [SECONDS [SEED0 [WORKLOAD...]]]]
# (make bench-pair PARENT=... [PAIRS=10] [SECONDS=16] [SEED0=...] [WORKLOADS="..."])
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "${1:?usage: bench-pair.sh PARENT [PAIRS [SECONDS [SEED0 [WORKLOAD...]]]]}" && pwd)
pairs=${2:-10}
seconds=${3:-16}
# Seeds nobody tuned against: the clock picks the first unless told.
seed0=${4:-$(($(date +%s) % 100000 * 10))}
[ $# -gt 4 ] && shift 4 || shift $#
spec=$root/BENCHMARK.json
# names SECTION: the "name" values of one array of BENCHMARK.json.
names() {
	awk -v sec="\"$1\"" 'index($0, sec) { on = 1 } on && /"name"/ { gsub(/.*"name": *"|".*/, ""); print } on && /^  \]/ { exit }' "$spec"
}
workloads=${*:-$(names workloads)}
out=$root/.bench-pair
rm -rf "$out" && mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
trap 'exit 130' INT TERM

export GOFLAGS=-buildvcs=false
(cd "$parent/bench" && go build -o "$out/parent" .)
(cd "$root/bench" && go build -o "$out/change" .)
echo "bench-pair: parent $parent, $pairs pairs, --seconds $seconds --trace 0, seeds $((seed0 + 1))..$((seed0 + pairs))"

bad=0
for w in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		order="parent change"
		[ $((i % 2)) -eq 0 ] && order="change parent"
		for side in $order; do
			if ! (cd "$out" && "./$side" --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace 0) >"$out/run" 2>"$out/err"; then
				echo "bench-pair: $side failed on $w seed $((seed0 + i)):" >&2
				cat "$out/err" >&2
				bad=1
			fi
			sed -n 's/^detail //p' "$out/run" >"$out/$w.$i.$side"
		done
		i=$((i + 1))
	done
	# One line per (pair, side): "side pair detail-json".
	for f in "$out/$w".*.parent "$out/$w".*.change; do
		side=${f##*.}
		pair=${f%.*}
		printf '%s %s %s\n' "$side" "${pair##*.}" "$(cat "$f")"
	done >"$out/$w.all"
	{
		awk '/"end_to_end"/ { on = 1 } on && /"name"/ { n = $0; gsub(/.*"name": *"|".*/, "", n) }
			on && /"better"/ { b = $0; gsub(/.*"better": *"|".*/, "", b); print "metric", n, b } on && /^  \]/ { exit }' "$spec"
		cat "$out/$w.all"
	} | awk -v w="$w" -v pairs="$pairs" '
	function field(js, key,    re) {
		re = "\"" key "\":(\"[^\"]*\"|[^,}]*)"
		if (!match(js, re)) return ""
		return substr(js, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
	}
	function value(js, m) {
		if (!match(js, "\"" m "\":\\{\"value\":[^,}]*")) return ""
		return substr(js, RSTART + length(m) + 12, RLENGTH - length(m) - 12)
	}
	# quart(side, m, q): the q-quantile of v[side, m, 1..pairs], interpolated.
	function quart(side, m, q,    n, i, j, t, s, pos, lo) {
		n = pairs
		for (i = 1; i <= n; i++) s[i] = v[side, m, i] + 0
		for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
		pos = 1 + (n - 1) * q; lo = int(pos)
		return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
	}
	$1 == "metric" { metrics[++nm] = $2; better[$2] = $3; next }
	{
		side = $1; p = $2; js = $0; sub(/^[^ ]* [^ ]* /, "", js)
		if (js == "" || field(js, "failed") != "0") { print "bench-pair: " w " pair " p " " side ": no result or failed operations"; bad = 1 }
		events[side, p] = field(js, "events_total"); digest[side, p] = field(js, "digest")
		for (i = 1; i <= nm; i++) v[side, metrics[i], p] = value(js, metrics[i])
	}
	END {
		for (p = 1; p <= pairs; p++) {
			if (events["parent", p] != events["change", p]) { print "bench-pair: " w " pair " p ": events_total " events["parent", p] " -> " events["change", p]; bad = 1 }
			if (digest["parent", p] != digest["change", p]) redigested++
			for (i = 1; i <= nm; i++) { m = metrics[i]
				if (m ~ /^sim_/ && v["parent", m, p] != v["change", m, p]) { print "bench-pair: " w " pair " p ": " m " " v["parent", m, p] " -> " v["change", m, p]; bad = 1 } }
		}
		if (redigested) print "bench-pair: " w ": note: the report digest differs in " redigested "/" pairs " pairs; events_total and every sim_* are what must match"
		for (i = 1; i <= nm; i++) { m = metrics[i]; ahead = 0
			for (p = 1; p <= pairs; p++) {
				d = v["change", m, p] - v["parent", m, p]
				if (better[m] == "lower" ? d < 0 : d > 0) ahead++
			}
			a = quart("parent", m, 0.5); b = quart("change", m, 0.5)
			if (m ~ /^sim_/ && !bad) { printf "%-14s %-22s %.9g identical in all %d pairs\n", w, m, a, pairs; continue }
			printf "%-14s %-22s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g]  %+.1f%%  ahead %d/%d\n", w, m,
				a, quart("parent", m, 0.25), quart("parent", m, 0.75), b, quart("change", m, 0.25), quart("change", m, 0.75),
				a ? 100 * (b - a) / a : 0, ahead, pairs
		}
		exit bad
	}' || bad=1
done
[ "$bad" -eq 0 ] || { echo "bench-pair: FAILED (a run failed, or the two trees did different work)" >&2; exit 1; }
