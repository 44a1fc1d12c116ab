#!/usr/bin/env bash
# Option counts, the other metric ROADMAP aim 2 reports (item 4(f)): how many
# independently settable values each configuration surface has. Counts names,
# so "UID, GID uint32" is two; an alias type counts as 0 own fields; "-" means
# the type does not exist. Pass a checkout root to count another tree (the
# parent commit, for a before/after table); default: this repository. CI
# diffs the output against tools/knobs.txt, so an added or removed option
# is named there in the same change.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# fields FILE TYPE: number of field names in `type TYPE struct { ... }`.
fields() {
	awk -v t="$2" '
		$1 == "type" && $2 == t && $3 == "=" { print "0 (= " $4 ")"; found = 1; exit }
		$1 == "type" && $2 == t && $3 == "struct" { in_s = 1; next }
		in_s && /^}/ { print n + 0; found = 1; exit }
		in_s && /^\t[A-Za-z_]/ {
			line = $0
			sub(/^\t/, "", line)
			match(line, /^[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*/)
			names = substr(line, 1, RLENGTH)
			n += gsub(/,/, ",", names) + 1
		}
		END { if (!found) print "-" }' "$1"
}

row() { printf '%12s  %s\n' "$1" "$2"; }
row "$(fields internal/core/cluster.go Options)" "core.Options fields"
row "$(fields internal/core/cluster.go ClientConfig)" "core.ClientConfig own fields"
row "$(fields internal/client/client.go Config)" "client.Config fields"
row "$(fields internal/dms/partition/node.go Config)" "partition.Config fields"
row "$(fields internal/rpc/rpc.go Config)" "rpc.Config fields"
row "$(fields internal/dms/dms.go Options)" "dms.Options fields"
row "$(fields internal/fms/fms.go Options)" "fms.Options fields"
# The observability config: flight.Config until the recorder folded into obs.
if [ -d internal/flight ]; then
	row "$(fields internal/flight/recorder.go Config)" "flight.Config fields (observability)"
else
	row "$(fields internal/obs/obs.go Config)" "obs.Config fields (observability)"
fi
row "$(grep -c '^func (s \*Server) Set' internal/rpc/rpc.go || true)" "rpc.Server Set* methods"
row "$(grep -hoE 'flag\.(String|Int|Bool|Duration|Float64)\(' cmd/locofsd/*.go | wc -l)" "locofsd flags"
