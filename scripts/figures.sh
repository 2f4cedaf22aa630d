#!/usr/bin/env bash
# Regenerate every figure (`cmd/experiments -fig all -svg`) and compare
# it byte for byte with the files committed under results/:
#
#   scripts/figures.sh           # into a temporary directory, removed after
#   scripts/figures.sh -dir DIR  # into DIR, kept (e.g. to refresh results/)
#
# README.md is not compared, and neither are the two machine-dependent
# outputs: figx-scale-throughput.svg and the `# x-scale-throughput`
# block of figx-scale.txt (kernel events per wall-clock second).
# Regenerated charts that results/ does not commit are not compared.
# The script lists every file that differs or was not regenerated, and
# exits 1 if there is any. A run takes about 30 minutes on 2 cores, so
# it is not a CI step; the cmd/experiments test TestResultsPinned checks
# Fig. 2 and Fig. 7 on every test run.
set -euo pipefail

dir=
while [ $# -gt 0 ]; do
	case "$1" in
	-dir) dir=$2; shift ;;
	*) echo "figures: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
	esac
	shift
done

root=$(cd "$(dirname "$0")/.." && pwd)
if [ -z "$dir" ]; then
	dir=$(mktemp -d "${TMPDIR:-/tmp}/figures-XXXXXX")
	trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir"

start=$(date +%s)
(cd "$root" && go run ./cmd/experiments -fig all -svg -out "$dir")
echo "figures: regenerated in $(($(date +%s) - start)) s" >&2

# comparable prints a results file without its machine-dependent part.
comparable() {
	case ${1##*/} in
	figx-scale.txt) awk '/^# x-scale-throughput/ { skip = 1 } skip && /^$/ { skip = 0 } !skip' "$1" ;;
	*) cat "$1" ;;
	esac
}

differ=() compared=0
while IFS= read -r f; do
	name=${f#results/}
	case $name in README.md | figx-scale-throughput.svg) continue ;; esac
	compared=$((compared + 1))
	if [ ! -f "$dir/$name" ]; then
		differ+=("$name (not regenerated)")
	elif ! cmp -s <(comparable "$root/$f") <(comparable "$dir/$name"); then
		differ+=("$name")
	fi
done < <(git -C "$root" ls-files results)

echo "figures: $compared committed files compared, ${#differ[@]} differ"
if [ ${#differ[@]} -gt 0 ]; then
	printf '  %s\n' "${differ[@]}"
	exit 1
fi
