#!/usr/bin/env bash
# Kill-and-resume determinism harness for the fleet checkpoint plane.
#
# One invocation = one scenario, shaped entirely by the environment
# (ROAM_PARALLEL, ROAM_FAULTS, ROAM_FLEET_WORKERS, ...):
#
#   1. run fleet_smoke straight through (no checkpointing) as reference;
#   2. run it again with ROAM_CHECKPOINT_DIR set, poll for the first
#      shard checkpoint file, then SIGKILL the whole process group —
#      a real kill, not a cooperative shutdown;
#   3. resume with ROAM_RESUME=1 and `cmp` the resumed stdout against
#      the reference byte for byte.
#
# fleet_smoke's stdout carries only the byte-stable report render (the
# throughput gate line goes to stderr), so the cmp needs no filtering.
# If the run finishes before the kill lands, the scenario degrades to
# resuming a finished directory — which must *still* reproduce the
# reference bytes, so the check stays meaningful either way; the log
# line says which variant actually ran.
#
# Usage: ci/kill_and_resume.sh <tag>
#   FLEET_SMOKE            path to the fleet_smoke binary
#                          (default target/release/fleet_smoke)
#   ROAM_CHECKPOINT_EVERY  checkpoint cadence in sim-days (default
#                          60000: one write per ~1000 users/shard at
#                          the default 60-day calendar)
set -euo pipefail

tag=${1:?usage: ci/kill_and_resume.sh <tag>}
bin=${FLEET_SMOKE:-target/release/fleet_smoke}
export ROAM_CHECKPOINT_EVERY=${ROAM_CHECKPOINT_EVERY:-60000}

work=$(mktemp -d)
ckpt="$work/ckpt"
trap 'rm -rf "$work"' EXIT

# Reference: the uninterrupted run, checkpointing off.
"$bin" >"$work/straight.txt" 2>/dev/null

# Victim: same knobs plus a checkpoint directory, killed as a group
# (setsid) so worker-mode children die with the parent and cannot keep
# writing into the directory the resume is about to read.
setsid env ROAM_CHECKPOINT_DIR="$ckpt" "$bin" >"$work/killed.txt" 2>"$work/killed.err" &
pid=$!
for _ in $(seq 1 600); do
  ls "$ckpt"/shard-*.ckpt >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.02
done
if kill -0 "$pid" 2>/dev/null; then
  kill -9 -- "-$pid" 2>/dev/null || kill -9 "$pid"
  variant="killed mid-run"
else
  variant="finished before the kill"
fi
wait "$pid" 2>/dev/null || true

test -f "$ckpt/manifest.ckpt" || {
  echo "kill_and_resume[$tag]: no manifest was written" >&2
  exit 1
}

# Resume: must refuse nothing and land on the reference bytes.
ROAM_RESUME=1 ROAM_CHECKPOINT_DIR="$ckpt" "$bin" >"$work/resumed.txt" 2>"$work/resumed.err" || {
  echo "kill_and_resume[$tag]: resume refused:" >&2
  cat "$work/resumed.err" >&2
  exit 1
}
cmp "$work/straight.txt" "$work/resumed.txt"
echo "kill_and_resume[$tag]: ok ($variant, $(ls "$ckpt" | wc -l) checkpoint files)"
