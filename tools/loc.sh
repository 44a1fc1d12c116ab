#!/usr/bin/env bash
# Net code size, the metric ROADMAP aim 2 reports: non-test Go lines that are
# neither blank nor a // comment, per package directory, outside benchmark/.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

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
