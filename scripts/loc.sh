#!/usr/bin/env bash
# loc.sh — non-test Go lines per package, over the files git tracks
# (run `git add` first to count new ones). The simplification PRs quote
# this table before and after; the CI lint job prints it.
#
#   ./scripts/loc.sh            # every package, then the total
#   ./scripts/loc.sh <git-ref>  # the same, for a commit instead of the index
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

ref=${1:-}
files() {
    if [ -n "$ref" ]; then git ls-tree -r --name-only "$ref"; else git ls-files; fi |
        grep '\.go$' | grep -v '_test\.go$'
}
lines() { # file
    if [ -n "$ref" ]; then git show "$ref:$1"; else cat "$1"; fi | wc -l
}

files | while read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(lines "$f")"
done | awk '
    { loc[$1] += $2; total += $2 }
    END {
        for (p in loc) printf "%7d  %s\n", loc[p], p
        printf "%7d  total\n", total
    }' | sort -k2
