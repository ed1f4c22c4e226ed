#!/bin/bash
# End-to-end smoke test for the mwcreplay load harness against the dynamic
# session API: build mwcd and mwcreplay, start the daemon, generate a short
# mixed-class trace with a majority of answer-preserving mutations, replay
# it, and verify through /metrics that the server absorbed the off-witness
# patches with zero simulation (witness-scoped invalidation) and served
# queries from the cached answer. mwcreplay itself exits non-zero if any
# patch the trace annotates offWitness:true comes back witnessKept:false,
# so a passing replay IS the invalidation-contract assertion.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${MWCD_PORT:-8357}"
BASE="http://$ADDR"
MWCD_PID=""
TRACE=""

go build -o /tmp/mwcd ./cmd/mwcd
go build -o /tmp/mwcreplay ./cmd/mwcreplay

cleanup() {
  if [ -n "$MWCD_PID" ] && kill -0 "$MWCD_PID" 2>/dev/null; then
    kill "$MWCD_PID" 2>/dev/null || true
    wait "$MWCD_PID" 2>/dev/null || true
  fi
  rm -f "$TRACE"
}
trap cleanup EXIT

/tmp/mwcd -addr "$ADDR" -workers 2 -queue 64 &
MWCD_PID=$!
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MWCD_PID" 2>/dev/null; then
    echo "mwcd exited during startup" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

TRACE=$(mktemp /tmp/mwcreplay-trace.XXXXXX.jsonl)

echo "== generate trace (mixed classes, >=30% off-witness mutations, bursty)"
/tmp/mwcreplay -generate "$TRACE" -sessions 3 -span 4s -rate 4 -burst 2 \
  -classes uw,dw,ud -offwitness 0.6 -seed 1
test -s "$TRACE"

echo "== replay against $BASE"
# Exits non-zero on any request failure or any off-witness patch the
# server failed to absorb witness-kept.
/tmp/mwcreplay -trace "$TRACE" -base "$BASE"

echo "== session metrics prove zero-simulation absorption and cache hits"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -E '^mwcd_session_witness_kept_total [1-9]'
echo "$METRICS" | grep -E '^mwcd_session_invalidations_total [1-9]'
echo "$METRICS" | grep -E '^mwcd_session_cached_answers_total [1-9]'
echo "$METRICS" | grep -E '^mwcd_session_open 0$'

echo "== graceful shutdown"
kill -TERM "$MWCD_PID"
wait "$MWCD_PID"
MWCD_PID=""
echo SMOKE-OK
