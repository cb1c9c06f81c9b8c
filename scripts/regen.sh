#!/bin/sh
# regen.sh — regenerate the committed result tables at their default
# settings into a temporary directory and compare each, byte for byte,
# with its copy under results/. Any difference fails the script: either a
# change moved a paper number (regenerate the file and say why in review)
# or the output stopped being deterministic.
#
# Covers all eight committed tables. fig6.txt and table4.txt take most of
# the time: about 50 s and 45 s on a 2-vCPU x86-64 host.
#
# Usage: scripts/regen.sh (no arguments).
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for cmd in table3 ablate multiprog frag table5 fig6 table4; do
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
check fig6.txt fig6
check table4.txt table4
exit "$status"
