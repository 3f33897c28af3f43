#!/usr/bin/env bash
# Worker-fault chaos harness for the supervised fleet backend.
#
# One invocation = two scenarios against one clean reference, shaped by
# the environment (ROAM_FLEET_USERS, ROAM_FAULTS, ...):
#
#   1. injected chaos: fleet_smoke on the worker backend under
#      ROAM_WORKER_FAULTS=heavy — keyed crashes, stalls, torn result
#      frames, spurious nonzero exits. The supervisor must recover
#      (respawn / retry / quarantine) and stdout must `cmp` clean
#      against the in-process reference. The stderr line
#      `fleet_smoke_worker_restarts: N (...)` proves recovery actually
#      ran rather than the chaos plane silently not firing.
#
#   2. external violence: the same run with chaos off while this script
#      SIGKILLs up to two live `fleet_worker` children mid-flight — a
#      real `kill -9` from outside, not an injected abort. Same bytes
#      required. If the run finishes before a kill lands the scenario
#      degrades to a plain worker run (still a meaningful cmp); the log
#      line says which variant ran.
#
# fleet_smoke's stdout carries only the byte-stable report render, so
# the cmps need no filtering.
#
# Usage: ci/worker_chaos.sh <tag>
#   FLEET_SMOKE             path to fleet_smoke (default target/release/fleet_smoke)
#   ROAM_WORKER_DEADLINE_MS stall-detection deadline for the chaos run
#                           (default 15000; must exceed one shard's wall time)
set -euo pipefail

tag=${1:?usage: ci/worker_chaos.sh <tag>}
bin=${FLEET_SMOKE:-target/release/fleet_smoke}
workers=${ROAM_FLEET_WORKERS:-4}
deadline=${ROAM_WORKER_DEADLINE_MS:-15000}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Reference: the clean in-process run.
ROAM_FLEET_WORKERS=0 "$bin" >"$work/clean.txt" 2>/dev/null

# Scenario 1: heavy injected worker chaos, supervised recovery.
ROAM_FLEET_WORKERS=$workers ROAM_WORKER_FAULTS=heavy \
    ROAM_WORKER_DEADLINE_MS=$deadline \
    "$bin" >"$work/chaos.txt" 2>"$work/chaos.err"
cmp "$work/clean.txt" "$work/chaos.txt"
restarts=$(sed -n 's/^fleet_smoke_worker_restarts: \([0-9]*\).*/\1/p' "$work/chaos.err")
if [ -z "${restarts:-}" ]; then
  echo "worker_chaos[$tag]: heavy chaos reported no recovery work:" >&2
  cat "$work/chaos.err" >&2
  exit 1
fi

# Scenario 2: external SIGKILLs of live worker children.
ROAM_FLEET_WORKERS=2 ROAM_WORKER_DEADLINE_MS=$deadline \
    "$bin" >"$work/shot.txt" 2>"$work/shot.err" &
pid=$!
killed=0
for _ in $(seq 1 600); do
  kill -0 "$pid" 2>/dev/null || break
  if [ "$killed" -lt 2 ]; then
    for child in $(pgrep -P "$pid" -x fleet_worker 2>/dev/null || true); do
      if kill -9 "$child" 2>/dev/null; then
        killed=$((killed + 1))
      fi
      [ "$killed" -ge 2 ] && break
    done
  fi
  sleep 0.05
done
if ! wait "$pid"; then
  echo "worker_chaos[$tag]: parent did not survive $killed SIGKILLed children:" >&2
  cat "$work/shot.err" >&2
  exit 1
fi
cmp "$work/clean.txt" "$work/shot.txt"
if [ "$killed" -gt 0 ]; then
  variant="$killed children SIGKILLed"
else
  variant="finished before a kill landed"
fi

echo "worker_chaos[$tag]: ok (injected chaos: $restarts restarts; external: $variant)"
