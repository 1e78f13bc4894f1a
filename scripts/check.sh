#!/bin/sh
# check.sh — the full local gate: formatting, build, vet, race-enabled
# tests with a coverage floor. Run from anywhere; it always operates on
# the repository root. CI runs exactly this via `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet (hot path) =="
# Vet the alloc-sensitive hot-path packages first so codec, broker,
# projection, engine and plan regressions fail fast, before the
# full-suite vet and race build.
go vet ./internal/wire/ ./internal/broker/ ./internal/model/ ./internal/core/ ./internal/storage/... ./internal/deptrack/

echo "== go vet =="
go vet ./...

echo "== go test -race (with coverage) =="
# The full output goes to a fixed log (gitignored) so that a failure
# never loses it; a failing run prints the log's path and every failed
# test, panic and data race block from it.
log=check-race.log
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
if ! go test -race -covermode=atomic -coverprofile="$profile" ./... >"$log" 2>&1; then
    grep -E '^(ok|FAIL|---)' "$log" || true
    echo "go test -race failed; the full output is in $(pwd)/$log. Failures:" >&2
    awk '
        /^WARNING: DATA RACE/ { block = "race" }
        /^panic: / { block = "panic" }
        /^[[:space:]]*--- FAIL/ { block = "fail"; print; next }
        block == "race" { print; if (/^==================/) block = ""; next }
        block == "panic" { if (/^(FAIL|ok)[[:space:]]/) block = ""; else print; next }
        block == "fail" { if (/^[[:space:]]/) { print; next }; block = "" }
    ' "$log" >&2
    exit 1
fi
grep -E '^(ok|FAIL)' "$log"

echo "== coverage floor =="
floor=$(cat scripts/coverage_floor.txt)
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
echo "total coverage: ${total}% (floor: ${floor}%)"
awk -v total="$total" -v floor="$floor" 'BEGIN { exit (total + 0 >= floor + 0) ? 0 : 1 }' || {
    echo "coverage ${total}% fell below the floor ${floor}% recorded in scripts/coverage_floor.txt" >&2
    echo "(fix: add tests, or consciously lower the floor in the same change)" >&2
    exit 1
}

echo "OK"
