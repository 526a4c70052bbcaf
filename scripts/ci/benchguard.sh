#!/usr/bin/env bash
# Interleaved A/B benchmark regression guard.
#
# Small shared CI runners drift by ±30% over the course of minutes, so
# running all base iterations followed by all head iterations confounds
# machine drift with real regressions. Instead base and head run in strict
# alternation (one A/B pair per round), per-round ratios are computed from
# matching pairs, and the build fails only when EVERY round reproduces a
# slowdown of more than FACTOR x for some benchmark — drift moves both
# sides of a pair together, a real regression moves every pair.
#
# Usage: benchguard.sh <base-ref>
# Environment: ROUNDS (default 4), BENCH (regex, default
#   BenchmarkScheduleOne|BenchmarkEventQueue — the decision and the event
#   queue under it),
#   BENCHTIME (default 200ms), FACTOR (default 2.0), OUT (default bench-ab).
set -euo pipefail

BASE_REF=${1:?usage: benchguard.sh <base-ref>}
ROUNDS=${ROUNDS:-4}
BENCH=${BENCH:-BenchmarkScheduleOne|BenchmarkEventQueue}
BENCHTIME=${BENCHTIME:-200ms}
FACTOR=${FACTOR:-2.0}
OUT=${OUT:-bench-ab}

mkdir -p "$OUT"
rm -f "$OUT"/base.txt "$OUT"/head.txt "$OUT"/base-rounds.txt "$OUT"/head-rounds.txt

base_dir=$(mktemp -d)
git worktree add --detach "$base_dir" "$BASE_REF" >/dev/null
trap 'git worktree remove --force "$base_dir" >/dev/null 2>&1 || true' EXIT

for i in $(seq "$ROUNDS"); do
  echo "== round $i/$ROUNDS: base ($BASE_REF)"
  # Benchmarks that exist only on head simply produce no base lines; a
  # base ref that cannot run the pattern at all must not fail the guard.
  (cd "$base_dir" && go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count 1 . 2>&1 || true) \
    | tee -a "$OUT/base.txt" \
    | { grep -E '^Benchmark' || true; } | sed "s/^/round$i /" >>"$OUT/base-rounds.txt"
  echo "== round $i/$ROUNDS: head"
  go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count 1 . \
    | tee -a "$OUT/head.txt" \
    | { grep -E '^Benchmark' || true; } | sed "s/^/round$i /" >>"$OUT/head-rounds.txt"
done

# Human-readable report for the uploaded artifact. benchstat aggregates the
# interleaved rounds (count 1 per round, ROUNDS samples per side); the
# pass/fail decision below is ours, not benchstat's.
if command -v benchstat >/dev/null 2>&1 || go install golang.org/x/perf/cmd/benchstat@latest; then
  PATH="$PATH:$(go env GOPATH)/bin" benchstat "$OUT/base.txt" "$OUT/head.txt" | tee "$OUT/benchstat.txt" || true
fi

awk -v factor="$FACTOR" '
  FNR == NR { base[$1 SUBSEP $2] = $4; next }
  { head[$1 SUBSEP $2] = $4; names[$2] = 1; rounds[$1] = 1 }
  END {
    bad = 0
    for (n in names) {
      best = -1; have = 0
      for (r in rounds) {
        key = r SUBSEP n
        if (!(key in base) || !(key in head) || base[key] + 0 <= 0) continue
        have++
        ratio = head[key] / base[key]
        if (best < 0 || ratio < best) best = ratio
      }
      # Reproducible: every paired round regressed by more than factor.
      if (have >= 2 && best > factor) {
        printf "REGRESSION %s: >%.1fx slower in all %d interleaved rounds (best round %.2fx)\n", n, factor, have, best
        bad = 1
      }
    }
    if (!bad) print "benchguard: no reproducible regression above " factor "x"
    exit bad
  }
' "$OUT/base-rounds.txt" "$OUT/head-rounds.txt" | tee "$OUT/verdict.txt"
test "${PIPESTATUS[0]}" -eq 0
