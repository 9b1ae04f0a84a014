#!/usr/bin/env bash
# End-to-end smoke of the ingestion service: frserve on a Unix domain
# socket, frload pushing a fleet through a faulty channel (bit flips,
# drops, duplicates) with NACK retransmission, then --verify: the server's
# shutdown checkpoint must restore to estimates bitwise-identical to the
# equivalent in-process run, with equal delivery counters. A second pair
# replays a churn workload (mid-stream re-registrations) through a channel
# that also delays records past the last tick (the final flush).
#
# Binaries come from $FRSERVE / $FRLOAD (set by the smoke.service CTest
# entry) or default to the build tree.
set -euo pipefail

FRSERVE="${FRSERVE:-build/tools/frserve}"
FRLOAD="${FRLOAD:-build/tools/frload}"

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# run_pair NAME FRLOAD_ARGS...: starts a fresh frserve, runs frload with
# --verify against it, and waits for the server to exit.
run_pair() {
  local name="$1"
  shift
  local sock="$workdir/$name.sock"
  local ckpt="$workdir/$name.ckpt"
  local server_out="$workdir/$name.frserve.out"
  local load_out="$workdir/$name.frload.out"

  "$FRSERVE" --uds="$sock" --d=32 --k=2 --eps=1.0 --workers=2 --dedup \
    --checkpoint="$ckpt" --checkpoint-interval-ms=50 \
    --checkpoint-mode=delta --checkpoint-compact-every=4 \
    --json >"$server_out" 2>&1 &
  server_pid=$!

  # Startup barrier: frserve prints its ready line once listening.
  for _ in $(seq 1 100); do
    grep -q "frserve ready" "$server_out" 2>/dev/null && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "frserve died during startup:" >&2
      cat "$server_out" >&2
      exit 1
    fi
    sleep 0.1
  done
  grep -q "frserve ready" "$server_out"

  "$FRLOAD" --uds="$sock" "$@" --checkpoint="$ckpt" --verify --json \
    | tee "$load_out"

  # frload sent kShutdown; the server drains, checkpoints, acks, and exits 0.
  wait "$server_pid"
  server_pid=""
  cat "$server_out"

  # The bench JSON is the artifact CI uploads; verify must have passed.
  grep -q '"bench":"frserve"' "$server_out"
  grep -q '"verify":1' "$load_out"
}

run_pair uniform --connections=3 --n=2000 --d=32 --k=2 --eps=1.0 \
  --seed=7 --workload-seed=3 \
  --corrupt-rate=0.05 --drop-rate=0.02 --dup-rate=0.01 --dedup \
  --retransmit-budget=16

run_pair churn --connections=3 --n=2000 --d=32 --k=2 --eps=1.0 \
  --seed=7 --workload-seed=3 --workload=churn \
  --delay-rate=0.2 --delay-max-ticks=3 --corrupt-rate=0.05 --dup-rate=0.01 \
  --dedup --retransmit-budget=16

echo "service smoke OK"
