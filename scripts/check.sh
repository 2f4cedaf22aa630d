#!/bin/sh
# Pre-PR verification: formatting, vet, build, then the full test suite
# under the race detector, which exercises the parallel sweep runner
# (scenario.RunAll) and the live UDP runtime over real goroutines.
#
#   ./scripts/check.sh          # full suite
#   ./scripts/check.sh -short   # skip the long calibration runs
set -eu
cd "$(dirname "$0")/.."
set -x
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race "$@" ./...
