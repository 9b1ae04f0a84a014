#!/usr/bin/env bash
# Per-stage throughput regression gate for the bench-smoke JSON line.
#
# Compares every *_records_per_sec stage field of a bench_throughput --json
# run against the committed baseline floors and fails if any stage dropped
# more than FR_BENCH_TOLERANCE (default 0.10 = 10%) below its floor. The
# baseline is deliberately conservative (well under a healthy run on the
# reference host) so ordinary scheduler noise never trips the gate — only a
# real hot-path regression does.
#
# It also holds a ceiling on the line's wire bytes per report (wire_bytes /
# reports, registrations included): lower is better, and the figure is
# deterministic for a shape and seed, so a run fails if it rose above the
# baseline's wire_bytes_per_report by more than the rounding of its four
# decimals — e.g. when fleet batches silently fall back from packed kind 10
# to kind 7. FR_BENCH_TOLERANCE, a slack for timing noise, does not apply
# to it.
#
# Usage:
#   scripts/check_bench_regression.sh <bench_json> [baseline_json]
#   scripts/check_bench_regression.sh --update <bench_json> [baseline_json]
#
# <bench_json> is any file containing one bench_throughput JSON line (a raw
# --json capture or a CI log that embeds it). --update rewrites the baseline
# from the run at 50% of its measured rates — run it on the reference host
# after an intentional perf change, then commit the new baseline. The wire
# ceiling is written as measured.
#
# Environment:
#   FR_BENCH_TOLERANCE  fractional slack below each stage floor (default 0.10)
set -euo pipefail

cd "$(dirname "$0")/.."

STAGES="tick_records_per_sec encode_records_per_sec ingest_records_per_sec query_records_per_sec"
TOLERANCE="${FR_BENCH_TOLERANCE:-0.10}"
DEFAULT_BASELINE="bench/baseline/bench_smoke_baseline.json"

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
bench_json="${1:?usage: check_bench_regression.sh [--update] <bench_json> [baseline_json]}"
baseline_json="${2:-$DEFAULT_BASELINE}"

# The capture may hold lines from several benches (the CI merges every
# bench-smoke JSON line into one file); gate the throughput stages against
# the throughput line specifically, never whichever bench happened to log
# first.
line="$(grep -o '{"bench":"throughput"[^}]*}' "$bench_json" | head -n 1 || true)"
if [[ -z "$line" ]]; then
  echo "check_bench_regression: no throughput bench JSON line found in $bench_json" >&2
  exit 2
fi

# Extracts a numeric field from a one-line JSON object.
field() {
  local value
  value="$(printf '%s\n' "$1" | grep -o "\"$2\":[^,}]*" | head -n 1 | cut -d: -f2)"
  if [[ -z "$value" ]]; then
    echo "check_bench_regression: field $2 missing from JSON line" >&2
    exit 2
  fi
  printf '%s\n' "$value"
}

# The wire figure is written to four decimals; a run may exceed the
# ceiling by no more than that rounding.
WIRE_EPSILON="0.0001"

# Wire bytes per report of the throughput line (wire_bytes / reports), to
# four decimals. Plain assignments, so a missing field exits 2 (set -e).
wire_bytes="$(field "$line" wire_bytes)"
wire_reports="$(field "$line" reports)"
if ! awk -v r="$wire_reports" 'BEGIN { exit !(r + 0 > 0) }'; then
  echo "check_bench_regression: throughput line has no reports" >&2
  exit 2
fi
wire_current="$(awk -v b="$wire_bytes" -v r="$wire_reports" \
  'BEGIN { printf "%.4f", b / r }')"

if [[ "$update" == 1 ]]; then
  mkdir -p "$(dirname "$baseline_json")"
  {
    printf '{'
    sep=""
    for stage in $STAGES; do
      current="$(field "$line" "$stage")"
      floor="$(awk -v v="$current" 'BEGIN { printf "%.6g", v * 0.5 }')"
      printf '%s"%s":%s' "$sep" "$stage" "$floor"
      sep=","
    done
    printf ',"wire_bytes_per_report":%s' "$wire_current"
    printf '}\n'
  } > "$baseline_json"
  echo "check_bench_regression: baseline updated at $baseline_json (50% of measured rates)"
  exit 0
fi

if [[ ! -f "$baseline_json" ]]; then
  echo "check_bench_regression: baseline $baseline_json not found (run with --update to create it)" >&2
  exit 2
fi
baseline_line="$(cat "$baseline_json")"

fail=0
for stage in $STAGES; do
  current="$(field "$line" "$stage")"
  floor="$(field "$baseline_line" "$stage")"
  if awk -v c="$current" -v f="$floor" -v t="$TOLERANCE" \
      'BEGIN { exit !(c + 0 >= f * (1 - t)) }'; then
    echo "  OK   $stage: $current (floor $floor)"
  else
    echo "  FAIL $stage: $current < $floor * (1 - $TOLERANCE)"
    fail=1
  fi
done

wire_ceiling="$(field "$baseline_line" wire_bytes_per_report)"
wire_fail=0
if awk -v c="$wire_current" -v f="$wire_ceiling" -v e="$WIRE_EPSILON" \
    'BEGIN { exit !(c + 0 <= f + e) }'; then
  echo "  OK   wire_bytes_per_report: $wire_current (ceiling $wire_ceiling)"
else
  echo "  FAIL wire_bytes_per_report: $wire_current > $wire_ceiling + $WIRE_EPSILON"
  wire_fail=1
fi

if [[ "$fail" != 0 ]]; then
  echo "check_bench_regression: per-stage throughput regressed below the baseline" >&2
fi
if [[ "$wire_fail" != 0 ]]; then
  echo "check_bench_regression: wire bytes per report rose above the baseline" >&2
fi
if [[ "$fail" != 0 || "$wire_fail" != 0 ]]; then
  exit 1
fi
echo "check_bench_regression: all stages within tolerance"

# Shootout cost ceilings: the cross-protocol bench reports per-report costs
# (lower is better), so its baseline holds CEILINGS rather than floors. The
# gate reads the first longitudinal (lgrr) shootout line — the newest
# protocol family is the one whose hot path must enter the perf trajectory
# — and fails if any cost rose above ceiling * (1 + tolerance). Skipped when
# the capture has no shootout line (throughput-only local runs stay valid).
SHOOTOUT_COSTS="bytes_per_report client_us_per_report server_us_per_report"
SHOOTOUT_BASELINE="bench/baseline/bench_shootout_baseline.json"
shootout_line="$(grep -o '{"bench":"shootout"[^}]*"protocol":"lgrr"[^}]*}' \
  "$bench_json" | head -n 1 || true)"
if [[ -n "$shootout_line" && -f "$SHOOTOUT_BASELINE" ]]; then
  shootout_baseline="$(cat "$SHOOTOUT_BASELINE")"
  for cost in $SHOOTOUT_COSTS; do
    current="$(field "$shootout_line" "$cost")"
    ceiling="$(field "$shootout_baseline" "$cost")"
    if awk -v c="$current" -v f="$ceiling" -v t="$TOLERANCE" \
        'BEGIN { exit !(c + 0 <= f * (1 + t)) }'; then
      echo "  OK   shootout $cost: $current (ceiling $ceiling)"
    else
      echo "  FAIL shootout $cost: $current > $ceiling * (1 + $TOLERANCE)"
      fail=1
    fi
  done
  if [[ "$fail" != 0 ]]; then
    echo "check_bench_regression: shootout per-report cost regressed above the ceiling" >&2
    exit 1
  fi
  echo "check_bench_regression: shootout costs within tolerance"
fi
