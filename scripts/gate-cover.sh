#!/bin/sh
# What the report gate exercises: builds cmd/methersweep and
# cmd/metherbench with -cover -coverpkg=./..., runs what `make golden`
# renders (the smoke, all and 16-host cluster grids and metherbench)
# plus the 64-host cluster grid, and prints the statement coverage per
# package, the total, and every non-test function no run reached. FULL
# adds the full cluster grid and its 1024-host rung. PARENT, a checkout
# of the parent commit, instead lists only the functions with lines
# changed since it that no run reaches, each with the changed statement
# lines left unrun.
#
# usage: gate-cover.sh [FULL] [PARENT]
# (make gate-cover [FULL=1] [PARENT=...])
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
full=${1:-}
parent=${2:-}
if [ -n "$parent" ]; then parent=$(cd "$parent" && pwd); fi
out=$root/.gate-cover
rm -rf "$out" && mkdir -p "$out/cov"
trap 'rm -rf "$out"' EXIT
trap 'exit 130' INT TERM

cd "$root"
export GOFLAGS=-buildvcs=false
go build -cover -coverpkg=./... -o "$out/methersweep" ./cmd/methersweep
go build -cover -coverpkg=./... -o "$out/metherbench" ./cmd/metherbench
export GOCOVERDIR=$out/cov
sweep() { "$out/methersweep" -q -workers 2 -format json -o "$out/report.json" "$@"; }
sweep -grid smoke
"$out/methersweep" -q -grid smoke -format csv -o "$out/report.csv"
sweep -grid all
sweep -grid cluster -hosts 16
sweep -grid cluster -hosts 64
"$out/metherbench" > "$out/EXPERIMENTS.md"
if [ -n "$full" ]; then
	sweep -grid cluster
	sweep -grid cluster -hosts 1024
fi
unset GOCOVERDIR

go tool covdata textfmt -i="$out/cov" -o "$out/cover.out"
go tool cover -func="$out/cover.out" | sed "s|^mether/||" > "$out/func.txt"
if [ -z "$parent" ]; then
	go tool covdata percent -i="$out/cov" | sed "s|^\tmether|mether|"
	tail -1 "$out/func.txt"
	echo "functions no run reaches:"
	grep -v '^total:' "$out/func.txt" | awk '$NF == "0.0%" { print "  " $1 " " $2 }'
	exit 0
fi

# changed.txt: "file line" for every line this tree adds to a tracked
# non-test Go file outside bench/, against the parent's copy.
for f in $(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$'); do
	old=$parent/$f
	[ -f "$old" ] || old=/dev/null
	diff --unchanged-line-format= --old-line-format= --new-line-format="$f %dn
" "$old" "$f" || true
done > "$out/changed.txt"

# A changed line counts when a coverage block covers it (a statement);
# it belongs to the last function declared at or above it.
awk '
FILENAME == ARGV[1] { split($1, a, ":"); fn[a[1], ++nf[a[1]]] = a[2]; name[a[1], nf[a[1]]] = $2; pct[a[1], nf[a[1]]] = $3; next }
FILENAME == ARGV[2] {
	if (FNR == 1) next
	split($1, a, ":"); f = a[1]; sub(/^mether\//, "", f)
	split(a[2], r, ","); split(r[1], s, "."); split(r[2], e, ".")
	for (l = s[1]; l <= e[1]; l++) { stmt[f, l] = 1; if ($3 > 0) ran[f, l] = 1 }
	next
}
(($1, $2) in stmt) {
	f = $1; k = 0
	for (i = 1; i <= nf[f]; i++) if (fn[f, i] + 0 <= $2 + 0) k = i
	if (!k) next
	key = f SUBSEP k; changed[key]++
	if (!(($1, $2) in ran)) unrun[key]++
}
END {
	for (key in changed) {
		n++; split(key, p, SUBSEP)
		if (key in unrun) printf "  %s:%s %s %s, %d of %d changed statement lines unrun\n", p[1], fn[p[1], p[2]], name[p[1], p[2]], pct[p[1], p[2]], unrun[key], changed[key] | "sort"
	}
	close("sort")
	printf "%d changed functions; those listed have changed lines no run reaches\n", n
}' "$out/func.txt" "$out/cover.out" "$out/changed.txt"
