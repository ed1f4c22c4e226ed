#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload approx-classes --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binary, store directories, trace files).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
  echo "perfbench: $root holds no congestmwc sources to build" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/stores"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
# The store directories go on a tmpfs mounted at .bench_build/stores in a
# private mount namespace: it is seen by this run only and disappears with
# it. Every job result and session record is fsynced, and on a shared disk
# fsync latency moves by milliseconds from minute to minute. Where the
# namespace or the mount is not allowed, the stores stay on disk and the
# benchmark says so on stderr.
if unshare --mount --propagation private true 2>/dev/null; then
  exec unshare --mount --propagation private sh -c \
    'mount -t tmpfs -o size=512m,mode=0700 perfbench "$1" 2>/dev/null || true; shift; exec "$@"' \
    sh "$out/stores" "$out/perfbench" "$@"
fi
exec "$out/perfbench" "$@"
