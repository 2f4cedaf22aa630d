#!/usr/bin/env bash
# Compare a change against its parent on the repo benchmark before
# submitting it, the way the benchmark's driver judges it:
#
#   scripts/preflight.sh                              # working tree vs HEAD, 3 seeds
#   scripts/preflight.sh -full                        # 10 seeds
#   scripts/preflight.sh -parent HEAD~1 -change HEAD  # a committed change
#   scripts/preflight.sh -workloads sim-paper -full   # one workload, ten pairs
#
# Options: -full (seeds 1..10 instead of 1..3), -parent REV (default
# HEAD), -change REV (default: the working tree as `git add -A` would
# commit it), -workloads a,b (default: every workload of the parent's
# BENCHMARK.json), -dir DIR (checkouts and logs; default a new temporary
# directory; emptied first).
#
# Both sides are exported with `git archive` (committed files only, as a
# fresh clone sees them), then the parent's benchmark/ and BENCHMARK.json
# are copied over the change's, so a change is judged by the harness it
# was written against. For every seed × workload × --trace 0|1 it runs
# `bash benchmark/run.sh` on both sides back to back, alternating which
# side goes first. Checks: every run reports correct and failed == 0; on
# the sim-* workloads delivery_rate and the traced sim.kernel_events,
# core.recovered, core.duplicate_recoveries and core.requests_sent are
# bit-identical per seed; no end-to-end median is worse than its
# BENCHMARK.json bound. A live run reported invalid is re-run up to three
# times and labelled a flake (a retry was valid) or a regression (none
# was). The markdown report goes to stdout, progress to stderr; the exit
# status is 1 when a check fails.
set -euo pipefail

k=3 parent=HEAD change= workloads= dir=
while [ $# -gt 0 ]; do
	case "$1" in
	-full) k=10 ;;
	-parent) parent=$2; shift ;;
	-change) change=$2; shift ;;
	-workloads) workloads=${2//,/ }; shift ;;
	-dir) dir=$2; shift ;;
	*) echo "preflight: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
	esac
	shift
done

root=$(git rev-parse --show-toplevel)
dir=${dir:-$(mktemp -d "${TMPDIR:-/tmp}/preflight-XXXXXX")}
dir=$(cd "$dir" 2>/dev/null && pwd || { mkdir -p "$dir" && cd "$dir" && pwd; })
rm -rf "$dir/parent" "$dir/change" "$dir/logs" "$dir/index" "$dir"/*.tsv "$dir/failures"
mkdir -p "$dir/parent" "$dir/change" "$dir/logs"

export_rev() { git -C "$root" archive --format=tar "$1" | tar -x -C "$2"; }
export_rev "$parent" "$dir/parent"
rev=$change
if [ -z "$rev" ]; then
	# Stage into a private copy of the index: the repository's own index
	# is left as it was.
	cp "$(git -C "$root" rev-parse --path-format=absolute --git-path index)" "$dir/index"
	GIT_INDEX_FILE="$dir/index" git -C "$root" add -A
	rev=$(GIT_INDEX_FILE="$dir/index" git -C "$root" write-tree)
fi
export_rev "$rev" "$dir/change"
rm -rf "$dir/change/benchmark"
cp -R "$dir/parent/benchmark" "$dir/parent/BENCHMARK.json" "$dir/change/"

spec="$dir/parent/BENCHMARK.json"
field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\).*/\1/p"; }
seconds=$(grep '"run_seconds"' "$spec" | field run_seconds)
[ -n "$workloads" ] || workloads=$(grep '"why"' "$spec" | field name | tr '\n' ' ')
bounds=$(grep '"bound"' "$spec" | while read -r line; do
	echo "$(echo "$line" | field name) $(echo "$line" | field better) $(echo "$line" | field bound)"
done)

# run SIDE WORKLOAD SEED TRACE ATTEMPT: one benchmark run; prints the log
# path, returns 0 when the run is valid.
run() {
	local log="$dir/logs/$1-$2-seed$3-trace$4-$5.log"
	(cd "$dir/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") >"$log" 2>&1 || true
	echo "$log"
	local last
	last=$(tail -n 1 "$log")
	[[ $last == *'"correct":true'* && $last == *'"failed":0,'* ]]
}

# cell SIDE WORKLOAD SEED TRACE: the run plus, for an invalid live run,
# up to three retries. Appends the status and the metrics of the first
# valid attempt (or of the first attempt when none was valid).
cell() {
	local log first=1 final=0 retries=0 used
	if log=$(run "$1" "$2" "$3" "$4" 0); then final=1; else first=0; fi
	used=$log
	while [ $final = 0 ] && [ $retries -lt 3 ] && [[ $2 == live-* ]]; do
		retries=$((retries + 1))
		if log=$(run "$1" "$2" "$3" "$4" $retries); then final=1 used=$log; fi
	done
	echo "$1 $2 $3 $4 $first $final $retries $used" >>"$dir/status.tsv"
	awk -v side="$1" -v w="$2" -v s="$3" -v t="$4" '$1 == w && NF == 4 && $2 != "VIOLATION" { print side, w, s, t, $2, $3 }' "$used" >>"$dir/results.tsv"
}

: >"$dir/status.tsv"
: >"$dir/results.tsv"
set -- $workloads
total=$((k * $# * 2)) n=0
for s in $(seq 1 "$k"); do
	j=0
	for w in $workloads; do
		for t in 0 1; do
			if [ $(((s + j + t) % 2)) = 0 ]; then order="change parent"; else order="parent change"; fi
			for side in $order; do cell "$side" "$w" "$s" "$t"; done
			n=$((n + 1))
			echo "preflight: $n/$total $w seed $s trace $t (${order%% *} first)" >&2
		done
		j=$((j + 1))
	done
done

# Report.
fail=0
failures="$dir/failures"
: >"$failures"
note() { echo "- FAIL: $*" >>"$failures"; fail=1; }
# value SIDE WORKLOAD SEED TRACE METRIC, with SEED "" for every seed.
value() { awk -v side="$1" -v w="$2" -v s="$3" -v t="$4" -v m="$5" '$1 == side && $2 == w && (s == "" || $3 == s) && $4 == t && $5 == m { print $6 }' "$dir/results.tsv"; }
median() { sort -g | awk '{ a[NR] = $1 } END { if (NR == 0) print "nan"; else if (NR % 2) print a[(NR + 1) / 2]; else printf "%.17g\n", (a[NR / 2] + a[NR / 2 + 1]) / 2 }'; }

echo "Preflight: parent $parent → change ${change:-working tree}; seeds 1–$k × $(echo $workloads | wc -w) workloads × --trace 0|1, --seconds $seconds, pairs back to back with alternating order; medians parent → change."
echo
metrics=$(echo "$bounds" | awk '{ print $1 }')
printf '| workload |'; for m in $metrics; do printf ' %s |' "$m"; done; echo
printf '|---|'; for m in $metrics; do printf -- '---|'; done; echo
for w in $workloads; do
	printf '| %s |' "$w"
	while read -r m better bound; do
		p=$(value parent "$w" "" 0 "$m" | median)
		c=$(value change "$w" "" 0 "$m" | median)
		line=$(awk -v p="$p" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN {
			fmt = (p >= 1e4 || p <= -1e4) ? "%.0f" : "%.4g"
			rel = (p != 0) ? (c - p) / (p < 0 ? -p : p) : 0
			worse = (better == "higher") ? -rel : rel
			out = (worse > bound) ? " **OUT**" : ""
			printf fmt " → " fmt " (%+.1f %%)%s\t%s\n", p, c, 100 * rel, out, (out != "") ? sprintf(fmt " → " fmt " (%+.1f %%, bound %.0f %%)", p, c, 100 * rel, 100 * bound) : ""
		}')
		printf ' %s |' "${line%%$'\t'*}"
		[ -z "${line#*$'\t'}" ] || note "median out of bound: $w $m ${line#*$'\t'}"
	done <<<"$bounds"
	echo
done

identical=0
while read -r side w s t first final retries log; do
	[ "$final" = 1 ] || note "$side $w seed $s trace $t: invalid run (log $log)"
done <"$dir/status.tsv"
for w in $workloads; do
	[[ $w == sim-* ]] || continue
	for s in $(seq 1 "$k"); do
		for m in delivery_rate "1 sim.kernel_events" "1 core.recovered" "1 core.duplicate_recoveries" "1 core.requests_sent"; do
			t=0
			[ "${m% *}" = 1 ] && t=1 m=${m#* }
			p=$(value parent "$w" "$s" "$t" "$m") c=$(value change "$w" "$s" "$t" "$m")
			if [ -n "$p" ] && [ "$p" = "$c" ]; then identical=$((identical + 1)); else note "$w seed $s $m differs: parent '$p', change '$c'"; fi
		done
	done
done

echo
echo "Checks:"
cat "$failures"
echo "- $identical sim-* identity values (delivery_rate; traced kernel events, recoveries, duplicate recoveries, requests) bit-identical per seed"
for w in $workloads; do
	[[ $w == live-* ]] || continue
	for side in parent change; do
		awk -v side="$side" -v w="$w" '$1 == side && $2 == w {
			n++
			if ($5 == 0) { bad++; labels = labels sprintf("%sseed %s trace %s: %s after %s retries", (bad > 1 ? "; " : ""), $3, $4, ($6 == 1 ? "flake" : "regression"), $7) }
		} END { printf "- %s %s: %d of %d runs invalid on first attempt%s\n", side, w, bad, n, (bad ? " (" labels ")" : "") }' "$dir/status.tsv"
	done
done
echo
violations=$(grep -h ' VIOLATION ' "$dir"/logs/*.log || true)
echo "VIOLATION lines: $(printf '%s' "$violations" | grep -c . || true)"
[ -z "$violations" ] || printf '    %s\n' "$violations"
echo
if [ $fail = 0 ]; then echo "Verdict: PASS"; else echo "Verdict: FAIL"; fi
echo
echo "Checkouts and logs: $dir"
exit $fail
