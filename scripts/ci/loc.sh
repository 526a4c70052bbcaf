#!/usr/bin/env bash
# Size table: per Go package under internal/ and cmd/, the non-test line
# count and the same without blank and comment-only lines — the two
# figures ROADMAP's "net non-test LOC should fall" is judged by — then the
# lines and bytes of the narrative documents and of root allocs_test.go,
# which grow the same way. Report only: it never fails a build.
#
# Usage: loc.sh [dir...]   (default: internal cmd)
set -euo pipefail
cd "$(dirname "$0")/../.."

[ $# -gt 0 ] || set -- internal cmd
printf '%-28s %8s %8s\n' package lines code
find "$@" -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u |
while read -r pkg; do
  find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
    awk -v p="$pkg" '{ n++ } !/^[[:space:]]*(\/\/.*)?$/ { c++ }
      END { printf "%-28s %8d %8d\n", p, n, c }'
done | awk '{ print; n += $2; c += $3 } END { printf "%-28s %8d %8d\n", "total", n, c }'
printf '\n%-28s %8s %8s\n' document lines bytes
wc -lc README.md DESIGN.md EXPERIMENTS.md CHANGES.md allocs_test.go |
  awk '$3 != "total" { printf "%-28s %8d %8d\n", $3, $1, $2 }'
