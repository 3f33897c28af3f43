#!/usr/bin/env bash
# Run the Criterion suite and flatten the estimates into BENCH_netsim.json
# at the repo root: one entry per benchmark (mean/median/std-dev in ns)
# plus the derived sequential-vs-Parallel(4) campaign speedup. The two
# campaign modes produce bit-identical data, so the ratio of their mean
# times is a pure wall-clock number — it scales with the host's cores
# (on a single-core host it sits near 1.0), which is why the host CPU
# count is recorded next to it.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p roam-bench --offline "$@"

# Population-scale throughput headline: time fleet_smoke itself (the
# criterion fleet group runs 2k users, too small to expose the hot path).
# Best-of-three 100k-user runs, on the default knobs and on both shard
# backends — worker threads (ROAM_PARALLEL=4) and worker processes
# (ROAM_FLEET_WORKERS=4) — all gated against ROAM_FLEET_FLOOR below.
# The gate line is on stderr (roam_bench::emit_users_per_sec), hence the
# `2>&1 >/dev/null` redirect.
cargo build -q --release --offline -p roam-bench --bin fleet_smoke
cargo build -q --release --offline -p roam-fleet --bin fleet_worker
export ROAM_FLEET_WORKER_BIN=target/release/fleet_worker
smoke_users=${ROAM_FLEET_BENCH_USERS:-100000}
floor=${ROAM_FLEET_FLOOR:-250000}

best_of_three() {
    local best=0 ups
    for _ in 1 2 3; do
        ups=$(env "$@" ROAM_FLEET_USERS="$smoke_users" target/release/fleet_smoke 2>&1 >/dev/null \
              | sed -n 's/^fleet_smoke_users_per_sec: //p')
        if [ "${ups%.*}" -gt "${best%.*}" ]; then best=$ups; fi
    done
    echo "$best"
}
best_ups=$(best_of_three ROAM_FLEET_WORKERS=0)
best_threads=$(best_of_three ROAM_PARALLEL=4)
best_workers=$(best_of_three ROAM_FLEET_WORKERS=4)

# Crash-recovery cost: the same harness under a 50% worker-crash chaos
# plane, against a clean run of the same shape. Restarts come from the
# fleet_smoke_worker_restarts stderr line; ms_per_restart bundles
# detection + backoff + respawn + shard re-execution and is
# informational (wall-clock noise can even make it negative), not a
# gate — the gates are byte identity (ci/worker_chaos.sh) and the
# supervised-throughput floor below.
recovery_users=${ROAM_RECOVERY_BENCH_USERS:-20000}
rec_env=(ROAM_FLEET_USERS="$recovery_users" ROAM_FLEET_SHARDS=8 ROAM_FLEET_WORKERS=2)
rec_clean_start=$(date +%s%N)
env "${rec_env[@]}" target/release/fleet_smoke >/dev/null 2>&1
rec_clean_ns=$(( $(date +%s%N) - rec_clean_start ))
rec_start=$(date +%s%N)
rec_err=$(env "${rec_env[@]}" ROAM_WORKER_FAULTS="crash=0.5" target/release/fleet_smoke 2>&1 >/dev/null)
rec_chaos_ns=$(( $(date +%s%N) - rec_start ))
rec_restarts=$(sed -n 's/^fleet_smoke_worker_restarts: \([0-9]*\).*/\1/p' <<<"$rec_err")
rec_restarts=${rec_restarts:-0}

# Export + analyze end-to-end: the columnar sink/frame/query pipeline
# against CSV render + re-parse on the same streamed session table
# (export_bench is best-of-three per phase internally, and asserts both
# pipelines compute the same answer). The speedup gate keeps the
# columnar path honest: it must stay >= ROAM_EXPORT_FLOOR x CSV end to
# end, at the same 100k-user scale as the throughput gate.
# The long-running agent end-to-end: scheduler fires + bounded-queue
# session streaming over a 30-sim-day horizon (service_smoke). Best of
# three, gated against ROAM_SERVICE_FLOOR events/sec below.
cargo build -q --release --offline -p roam-bench --bin service_smoke
service_days=${ROAM_SERVICE_BENCH_DAYS:-30}
service_floor=${ROAM_SERVICE_FLOOR:-20000}
best_eps=0
for _ in 1 2 3; do
    eps=$(ROAM_SERVICE_BENCH_DAYS="$service_days" target/release/service_smoke 2>&1 >/dev/null \
          | sed -n 's/^service_events_per_sec: //p')
    if [ "${eps%.*}" -gt "${best_eps%.*}" ]; then best_eps=$eps; fi
done

cargo build -q --release --offline -p roam-bench --bin export_bench
export_floor=${ROAM_EXPORT_FLOOR:-2.0}
eb=$(ROAM_FLEET_USERS="$smoke_users" target/release/export_bench 2>&1 >/dev/null)
eb_csv_mbps=$(sed -n 's/^export_bench_csv_mb_per_sec: //p' <<<"$eb")
eb_col_mbps=$(sed -n 's/^export_bench_columnar_mb_per_sec: //p' <<<"$eb")
eb_export_sp=$(sed -n 's/^export_bench_export_speedup: //p' <<<"$eb")
eb_analyze_sp=$(sed -n 's/^export_bench_analyze_speedup: //p' <<<"$eb")
eb_total_sp=$(sed -n 's/^export_bench_speedup: //p' <<<"$eb")

crit=target/criterion
out=BENCH_netsim.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

for est in "$crit"/*/*/new/estimates.json; do
    [ -f "$est" ] || continue
    name_dir=$(dirname "$(dirname "$est")")
    group=$(basename "$(dirname "$name_dir")")
    name=$(basename "$name_dir")
    jq --arg id "$group/$name" \
       '{($id): {mean_ns: .mean.point_estimate,
                 median_ns: .median.point_estimate,
                 std_dev_ns: .std_dev.point_estimate}}' "$est"
done | jq -s 'add // {}' > "$tmp"

jq -n \
   --slurpfile b "$tmp" \
   --argjson cpus "$(nproc)" \
   --argjson smoke "$best_ups" \
   --argjson smoke_threads "$best_threads" \
   --argjson smoke_workers "$best_workers" \
   --argjson floor "$floor" \
   --argjson smoke_users "$smoke_users" \
   --argjson eb_csv_mbps "$eb_csv_mbps" \
   --argjson eb_col_mbps "$eb_col_mbps" \
   --argjson eb_export_sp "$eb_export_sp" \
   --argjson eb_analyze_sp "$eb_analyze_sp" \
   --argjson eb_total_sp "$eb_total_sp" \
   --argjson export_floor "$export_floor" \
   --argjson service_eps "$best_eps" \
   --argjson service_floor "$service_floor" \
   --argjson service_days "$service_days" \
   --argjson rec_clean_ns "$rec_clean_ns" \
   --argjson rec_chaos_ns "$rec_chaos_ns" \
   --argjson rec_restarts "$rec_restarts" \
   --argjson rec_users "$recovery_users" \
   '($b[0]."campaign/device_campaign_seq".mean_ns) as $seq
    | ($b[0]."campaign/device_campaign_par4".mean_ns) as $par
    | ($b[0]."engine/transfer_closed_form".mean_ns) as $cf
    | ($b[0]."telemetry/ping_recorder_off".mean_ns) as $toff
    | ($b[0]."telemetry/ping_recorder_summary".mean_ns) as $tsum
    | ($b[0]."netsim/packet_forward".mean_ns) as $fwd
    | ($b[0]."telemetry/sink_noop_1k".mean_ns) as $noop
    | ($b[0]."telemetry/sink_recorder_off_1k".mean_ns) as $roff
    | ($b[0]."fleet/run_2k_users_sequential".mean_ns) as $fseq
    | ($b[0]."fleet/run_2k_users_4_shards_parallel".mean_ns) as $fpar
    | ($b[0]."faults/ping_faults_off".mean_ns) as $poff
    | ($b[0]."faults/ping_faults_heavy".mean_ns) as $pheavy
    | ($b[0]."checkpoint/shard_encode_2k".mean_ns) as $cke
    | ($b[0]."checkpoint/shard_decode_2k".mean_ns) as $ckd
    | ($b[0]."checkpoint/shard_write_2k".mean_ns) as $ckw
    | ($b[0]."checkpoint/resume_validate_2k".mean_ns) as $ckr
    | {schema: "roamsim-bench-v1",
       host: {cpus: $cpus},
       telemetry: {
         note: "recorder-off ping over the bare packet_forward path gates the disabled-telemetry overhead (~1.0 = free); summary_over_off is what turning counters on costs; recorder_off_over_noop_1k compares the mode-gated recorder against the statically-dispatched empty sink",
         ping_recorder_off_ns: $toff,
         ping_recorder_summary_ns: $tsum,
         off_over_bare_ping: (if $toff != null and $fwd != null then ($toff / $fwd) else null end),
         summary_over_off: (if $tsum != null and $toff != null then ($tsum / $toff) else null end),
         recorder_off_over_noop_1k: (if $roff != null and $noop != null then ($roff / $noop) else null end)
       },
       parallel: {
         note: "seq and par4 runs export bit-identical data; speedup is wall-clock only and scales with host cores",
         device_campaign_seq_ns: $seq,
         device_campaign_par4_ns: $par,
         speedup_seq_over_par4: (if $seq != null and $par != null then ($seq / $par) else null end)
       },
       engine: {
         note: "the closed-form transfer time (throughput::transfer_time_ms) of one 50 MB, 8-stream transfer",
         transfer_closed_form_ns: $cf
       },
       faults: {
         note: "ping with a pinned-off fault spec over the bare packet_forward path gates the disabled-fault-plane overhead (the contract is one always-false branch per walk, <= 1.02); heavy_over_off is what a fully materialised heavy calendar set costs on the same walk",
         ping_faults_off_ns: $poff,
         ping_faults_heavy_ns: $pheavy,
         off_over_bare_ping: (if $poff != null and $fwd != null then ($poff / $fwd) else null end),
         heavy_over_off: (if $pheavy != null and $poff != null then ($pheavy / $poff) else null end),
         disabled_overhead_within_2pct: (if $poff != null and $fwd != null then ($poff / $fwd) <= 1.02 else null end)
       },
       fleet: {
         note: "2k-user run timed end-to-end (synthesis, purchases, sessions, sketches); users_per_sec_smoke is the population-scale throughput headline (best of three 100k-user fleet_smoke runs), gated against floor_users_per_sec on both backends; _threads4 spreads shards over 4 threads, _workers4 over 4 worker processes (pipes + codec frames), and workers4_over_threads4 is the process-backend tax (or win) — every mode produces byte-identical reports",
         run_2k_users_sequential_ns: $fseq,
         run_2k_users_4_shards_parallel_ns: $fpar,
         users_per_sec_sequential: (if $fseq != null then (2000 / ($fseq / 1e9)) else null end),
         users_per_sec_4_shards: (if $fpar != null then (2000 / ($fpar / 1e9)) else null end),
         users_per_sec_smoke: $smoke,
         users_per_sec_smoke_threads4: $smoke_threads,
         users_per_sec_smoke_workers4: $smoke_workers,
         workers4_over_threads4: (if $smoke_threads > 0 then ($smoke_workers / $smoke_threads) else null end),
         floor_users_per_sec: $floor,
         smoke_users: $smoke_users,
         above_floor: ($smoke >= $floor),
         above_floor_workers: ($smoke_workers >= $floor)
       },
       service: {
         note: "the measurement agent run end-to-end for a 30-sim-day horizon on default sizing: an event is one scheduler job fire (cohort tick, vantage probe, fault advance) or one session record through the bounded export queue; best of three service_smoke runs, gated against floor_events_per_sec",
         events_per_sec: $service_eps,
         sim_days: $service_days,
         floor_events_per_sec: $service_floor,
         above_floor: ($service_eps >= $service_floor)
       },
       export: {
         note: "the session table streamed from one fleet run, exported and analyzed both ways: CSV render + text re-parse vs columnar frame seal + zero-copy view + streaming query; export_speedup and analyze_speedup are per-phase CSV-over-columnar time ratios, speedup is end to end (export + analyze), gated against floor_speedup",
         csv_mb_per_sec: $eb_csv_mbps,
         columnar_mb_per_sec: $eb_col_mbps,
         export_speedup: $eb_export_sp,
         analyze_speedup: $eb_analyze_sp,
         speedup: $eb_total_sp,
         floor_speedup: $export_floor,
         above_floor: ($eb_total_sp >= $export_floor)
       },
       supervision: {
         note: "the worker backend is always supervised now (heartbeat frames between shards, one reader thread per child, liveness sweep, generation-tagged events); the gate holds supervised worker throughput within 2% of the worker-backend floor recorded before supervision landed",
         users_per_sec_supervised_workers4: $smoke_workers,
         pre_supervision_floor: $floor,
         within_2pct_of_floor: ($smoke_workers >= 0.98 * $floor)
       },
       recovery: {
         note: "one fleet_smoke shape run clean and under ROAM_WORKER_FAULTS=crash=0.5 (2 supervised workers, 8 shards); restarts from the fleet_smoke_worker_restarts stderr line; ms_per_restart = wall delta / restarts, informational only — it bundles crash detection, backoff, respawn and shard re-execution, and wall noise can push it negative",
         users: $rec_users,
         clean_ns: $rec_clean_ns,
         chaos_ns: $rec_chaos_ns,
         worker_restarts: $rec_restarts,
         ms_per_restart: (if $rec_restarts > 0 then (($rec_chaos_ns - $rec_clean_ns) / $rec_restarts / 1e6) else null end)
       },
       checkpoint: {
         note: "shard checkpoint frame for a 500-user shard state: encode (codec only), decode (parse + integrity hash + field decode), write (temp + fsync + rename, the torn-write protocol), and resume_validate (everything FleetRunner::resume pays before the first user: manifest decode, fingerprint recompute incl. world+market build, all shard loads)",
         shard_encode_2k_ns: $cke,
         shard_decode_2k_ns: $ckd,
         shard_write_2k_ns: $ckw,
         resume_validate_2k_ns: $ckr,
         write_over_encode: (if $ckw != null and $cke != null then ($ckw / $cke) else null end)
       },
       benchmarks: $b[0]}' > "$out"

echo "wrote $out"
jq '.parallel, .engine, .telemetry, .faults, .fleet, .service, .export, .supervision, .recovery, .checkpoint' "$out"

if [ "$(jq '.faults.disabled_overhead_within_2pct' "$out")" = "false" ]; then
    echo "WARNING: disabled fault plane costs >2% over the bare ping path" >&2
    echo "         (faults/ping_faults_off vs netsim/packet_forward)" >&2
    exit 1
fi

if [ "$(jq '.fleet.above_floor' "$out")" = "false" ]; then
    echo "FAIL: fleet_smoke throughput ${best_ups} users/sec is below the" >&2
    echo "      floor of ${floor} (override with ROAM_FLEET_FLOOR)" >&2
    exit 1
fi

if [ "$(jq '.fleet.above_floor_workers' "$out")" = "false" ]; then
    echo "FAIL: fleet_smoke worker-process throughput ${best_workers} users/sec" >&2
    echo "      is below the floor of ${floor} (override with ROAM_FLEET_FLOOR)" >&2
    exit 1
fi

if [ "$(jq '.supervision.within_2pct_of_floor' "$out")" = "false" ]; then
    echo "FAIL: supervised worker throughput ${best_workers} users/sec fell more" >&2
    echo "      than 2% below the worker-backend floor of ${floor} — the" >&2
    echo "      supervision plane (heartbeats, reader threads, liveness sweep)" >&2
    echo "      is costing real throughput (override with ROAM_FLEET_FLOOR)" >&2
    exit 1
fi

if [ "$(jq '.service.above_floor' "$out")" = "false" ]; then
    echo "FAIL: service_smoke throughput ${best_eps} events/sec is below the" >&2
    echo "      floor of ${service_floor} (override with ROAM_SERVICE_FLOOR)" >&2
    exit 1
fi

if [ "$(jq '.export.above_floor' "$out")" = "false" ]; then
    echo "FAIL: columnar export+analyze is only ${eb_total_sp}x the CSV path," >&2
    echo "      below the floor of ${export_floor}x (override with ROAM_EXPORT_FLOOR)" >&2
    exit 1
fi
