#!/usr/bin/env bash
# Net code size, the metric ROADMAP aim 2 reports: non-test Go lines that are
# neither blank nor a // comment, per package directory, outside benchmark/.
# Pass a checkout root to count another tree (the parent commit, for a
# before/after table); default: this repository.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
	xargs -0 awk '
		!/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {
			dir = FILENAME
			sub(/\/[^\/]*$/, "", dir)
			n[dir]++
			total++
		}
		END {
			for (d in n) printf "%6d  %s\n", n[d], d
			printf "%6d  total\n", total
		}' | sort -k2
