#!/bin/sh
# The report gate of a change meant to move no report byte: builds
# cmd/methersweep in this tree and in a checkout of its parent, renders
# the JSON and CSV reports of -grid smoke, -grid all and -grid cluster
# -hosts 64 with each (plus the full -grid cluster when FULL is set),
# cmp's every pair and prints each grid's event total and coroutine
# resumes per side. Where a JSON pair differs it prints one line per
# moved field: cell, field, parent -> change. Exits non-zero on any
# difference.
#
# usage: same-reports.sh PARENT [FULL]
# (make same-reports PARENT=... [FULL=1])
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "${1:?usage: same-reports.sh PARENT [FULL]}" && pwd)
full=${2:-}
out=$root/.same-reports
rm -rf "$out" && mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
trap 'exit 130' INT TERM

export GOFLAGS=-buildvcs=false
(cd "$parent" && go build -o "$out/parent" ./cmd/methersweep)
(cd "$root" && go build -o "$out/change" ./cmd/methersweep)
echo "same-reports: parent $parent"

# moved PARENT CHANGE: the fields that differ between two JSON reports
# as "cell field parent -> change", "-" for a field one side omits
# (reports drop zero fields). A report is one field per line, and a
# scenario's "name" comes first; array elements are numbered.
moved() {
	awk '
	FNR == 1 { cell = "" }
	{
		l = $0; sub(/^[ \t]+/, "", l); sub(/,$/, "", l)
		if (match(l, /^"[^"]*": /)) {
			f = substr(l, 2, RLENGTH - 4); v = substr(l, RLENGTH + 1)
			if (f == "name") { cell = v; gsub(/"/, "", cell) }
			if (v == "[" || v == "{") { arr = f; i = 0; next }
		} else if (l ~ /^[][{}]/) next
		else { f = arr "[" i++ "]"; v = l }
		k = (cell == "" ? "-" : cell) " " f
	}
	FNR == NR { was[k] = v; order[++n] = k; next }
	{ now[k] = v; if (!(k in was)) printf "  %s  - -> %s\n", k, v; else if (was[k] != v) printf "  %s  %s -> %s\n", k, was[k], v }
	END { for (j = 1; j <= n; j++) if (!(order[j] in now)) printf "  %s  %s -> -\n", order[j], was[order[j]] }
	' "$1" "$2"
}

bad=0
for grid in smoke all cluster-h64 ${full:+cluster}; do
	case $grid in
	cluster-h64) args="-grid cluster -hosts 64" ;;
	*) args="-grid $grid" ;;
	esac
	for side in parent change; do
		for format in json csv; do
			# The timing line on stderr ends in "N events of which M
			# coroutine resumes".
			"$out/$side" $args -format $format -o "$out/$grid.$side.$format" 2>"$out/$grid.$side.err" || {
				echo "same-reports: $side failed on $args -format $format:" >&2
				cat "$out/$grid.$side.err" >&2
				bad=1
			}
		done
		printf '%-12s %-7s %s\n' "$grid" "$side" "$(sed -n 's/.*speedup [^,]*, //p' "$out/$grid.$side.err")"
	done
	cmp "$out/$grid.parent.json" "$out/$grid.change.json" || {
		moved "$out/$grid.parent.json" "$out/$grid.change.json"
		bad=1
	}
	cmp "$out/$grid.parent.csv" "$out/$grid.change.csv" || bad=1
done
[ "$bad" -eq 0 ] || { echo "same-reports: FAILED (a run failed or a report differs)" >&2; exit 1; }
echo "same-reports: every report identical"
