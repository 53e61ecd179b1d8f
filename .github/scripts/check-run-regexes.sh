#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` regex in the CI workflow
# names no test. `go test -run` passes when its regex matches nothing, so
# a deleted or renamed test would otherwise drop out of CI silently.
#
# Each `-run` of a `go test` command (on its line or the line before) is
# split at its top-level `|`; each alternative, cut at its first `/`
# (`-list` sees top-level names only), must list a test in the packages
# of its command, built with its `-tags`. The packages are the `.`-led
# arguments after the regex, or on the next line when none follow it.
#
#   bash .github/scripts/check-run-regexes.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/../.."
workflow=${1:-.github/workflows/ci.yml}

awk '
function pkgs_of(line,   n, i, t, out) {
	n = split(line, t, /[ \t]+/)
	out = ""
	for (i = 1; i <= n; i++)
		if (t[i] ~ /^\.(\/|$)/) out = out " " t[i]
	return out
}
pending != "" {
	n = split(pending, p, "\n")
	for (i = 1; i <= n; i++) print p[i] "\037" pkgs_of($0)
	pending = ""
}
!/^[ \t]*#/ && /-run[ =]/ && !/-run=NONE/ && ($0 ~ /go test/ || prev ~ /go test/) {
	rest = $0
	sub(/.*-run[ =]/, "", rest)
	if (rest ~ /^'\''/) {
		re = substr(rest, 2)
		re = substr(re, 1, index(re, "'\''") - 1)
		rest = substr(rest, length(re) + 3)
	} else {
		re = rest
		sub(/[ \t].*/, "", re)
		rest = substr(rest, length(re) + 1)
	}
	tags = ($0 ~ /-tags failpoint/ || prev ~ /-tags failpoint/) ? "-tags failpoint" : ""
	depth = 0; alt = ""; alts = ""
	for (i = 1; i <= length(re); i++) {
		c = substr(re, i, 1)
		if (c == "(") depth++
		if (c == ")") depth--
		if (c == "|" && depth == 0) { alts = alts alt "\n"; alt = "" } else alt = alt c
	}
	alts = alts alt
	n = split(alts, a, "\n")
	pk = pkgs_of(rest)
	for (i = 1; i <= n; i++) {
		line = tags "\037" a[i]
		if (pk != "") print line "\037" pk
		else pending = pending (pending == "" ? "" : "\n") line
	}
}
{ prev = $0 }
' "$workflow" | sort -u | {
	status=0
	while IFS=$'\037' read -r tags alt pkgs; do
		# shellcheck disable=SC2086 # tags and pkgs are word lists
		listed=$(go test $tags -list "${alt%%/*}" $pkgs </dev/null)
		if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
			echo "$workflow: -run alternative '$alt' lists no test in$pkgs${tags:+ ($tags)}"
			status=1
		fi
	done
	exit $status
}
