#!/bin/sh
# The report gate of a change meant to move no report byte: builds
# cmd/methersweep in this tree and in a checkout of its parent, renders
# the JSON and CSV reports of -grid smoke, -grid all and -grid cluster
# -hosts 64 with each (plus the full -grid cluster and its 1024-host
# rung, -grid cluster -hosts 1024, when FULL is set),
# cmp's every pair and prints each grid's event total and coroutine
# resumes per side. Where a JSON pair differs it prints one line per
# moved field: cell, field, parent -> change. Exits non-zero on any
# difference.
#
# FALLS, a comma-separated list of report fields (for a footprint change,
# mem_bytes,bytes_per_host), relaxes the gate for those fields alone: a
# listed field may move in the JSON if it fell, or if the parent omitted
# it (the change reports it where the parent did not), and the CSVs are
# compared without the listed columns. Any other move, and a listed
# field that rose, still fails.
#
# usage: same-reports.sh PARENT [FULL] [FALLS]
# (make same-reports PARENT=... [FULL=1] [FALLS=mem_bytes,bytes_per_host])
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "${1:?usage: same-reports.sh PARENT [FULL] [FALLS]}" && pwd)
full=${2:-}
falls=${3:-}
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
# scenario's "name" comes first; array elements are numbered. A move
# FALLS allows is marked "(fell)" or "(new)"; the status is 1 if any
# other field moved.
moved() {
	awk -v falls="$falls" '
	BEGIN { m = split(falls, fl, ","); for (j = 1; j <= m; j++) if (fl[j] != "") listed[fl[j]] = 1 }
	function show(k, a, b,   f, ok) {
		f = k; sub(/^[^ ]* /, "", f); sub(/\[[0-9]+\]$/, "", f)
		# An omitted value is a zero: a listed field that fell to zero
		# vanishes from the change, and one new in the change is allowed.
		ok = ""
		if (f in listed && a == "-") ok = "  (new)"
		else if (f in listed && (b == "-" ? 0 : b + 0) < a + 0) ok = "  (fell)"
		printf "  %s  %s -> %s%s\n", k, a, b, ok
		if (ok == "") bad = 1
	}
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
	{ now[k] = v; if (!(k in was)) show(k, "-", v); else if (was[k] != v) show(k, was[k], v) }
	END { for (j = 1; j <= n; j++) if (!(order[j] in now)) show(order[j], was[order[j]], "-"); exit bad }
	' "$1" "$2"
}

# without CSV: the CSV with the FALLS columns removed (the CSV itself
# when FALLS is empty). Fields are split
# on the commas outside double quotes (a quoted field's inner quotes are
# doubled, so they toggle twice).
without() {
	awk -v falls="$falls" '
	BEGIN { m = split(falls, fl, ","); for (j = 1; j <= m; j++) if (fl[j] != "") listed[fl[j]] = 1 }
	{
		n = 0; f = ""; q = 0
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "\"") q = !q
			if (c == "," && !q) { col[++n] = f; f = ""; continue }
			f = f c
		}
		col[++n] = f
		if (FNR == 1) for (i = 1; i <= n; i++) drop[i] = (col[i] in listed)
		out = ""; sep = ""
		for (i = 1; i <= n; i++) if (!drop[i]) { out = out sep col[i]; sep = "," }
		print out
	}
	' "$1"
}

bad=0
for grid in smoke all cluster-h64 ${full:+cluster cluster-h1024}; do
	case $grid in
	cluster-h*) args="-grid cluster -hosts ${grid#cluster-h}" ;;
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
	# Without FALLS any JSON difference fails, even one moved cannot
	# name; with it, the CSVs below still catch a reordering.
	cmp "$out/$grid.parent.json" "$out/$grid.change.json" || {
		moved "$out/$grid.parent.json" "$out/$grid.change.json" || bad=1
		[ -n "$falls" ] || bad=1
	}
	for side in parent change; do
		without "$out/$grid.$side.csv" >"$out/$grid.$side.kept.csv"
	done
	cmp "$out/$grid.parent.kept.csv" "$out/$grid.change.kept.csv" || bad=1
done
[ "$bad" -eq 0 ] || { echo "same-reports: FAILED (a run failed or a report differs)" >&2; exit 1; }
echo "same-reports: every report identical${falls:+ but for $falls, which only fell or appeared}"
