#!/bin/sh
# The report gate of a change meant to move no report byte: builds
# cmd/methersweep in this tree and in a checkout of its parent, renders
# the JSON and CSV reports of -grid smoke, -grid all and -grid cluster
# -hosts 64 with each (plus the full -grid cluster when FULL is set),
# cmp's every pair and prints each grid's event total and coroutine
# resumes per side. Exits non-zero on any difference.
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
	for format in json csv; do
		cmp "$out/$grid.parent.$format" "$out/$grid.change.$format" || bad=1
	done
done
[ "$bad" -eq 0 ] || { echo "same-reports: FAILED (a run failed or a report differs)" >&2; exit 1; }
echo "same-reports: every report identical"
