#!/bin/sh
# regen.sh — regenerate the committed result tables at their default
# settings into a temporary directory and compare each, byte for byte,
# with its copy under results/. Any difference fails the script: either a
# change moved a paper number (regenerate the file and say why in review)
# or the output stopped being deterministic.
#
# Covers the six tables that regenerate in well under a minute. fig6.txt
# (~60 s) and table4.txt (~45 s) take longer on a 2-vCPU x86-64 host and
# are regenerated by hand:
#
#	go run ./cmd/fig6 | cmp - results/fig6.txt
#	go run ./cmd/table4 -runs 2 | cmp - results/table4.txt
#
# Usage: scripts/regen.sh (no arguments).
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for cmd in table3 ablate multiprog frag table5 fig6; do
	go build -o "$tmp/$cmd" "./cmd/$cmd"
done

status=0
# check <results file> <command> [flags...]
check() {
	name="$1"
	bin="$2"
	shift 2
	"$tmp/$bin" "$@" >"$tmp/$name"
	if cmp -s "$tmp/$name" "results/$name"; then
		echo "regen: results/$name reproduces"
	else
		echo "regen: results/$name differs from a fresh run:" >&2
		diff "results/$name" "$tmp/$name" >&2 || true
		status=1
	fi
}

check table3.txt table3 -delta
check ablate.txt ablate
check multiprog.txt multiprog
check frag.txt frag
check table5.txt table5
check bits.txt fig6 -bits
exit "$status"
