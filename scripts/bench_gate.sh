#!/usr/bin/env bash
# Throughput regression gate: compares the freshly generated
# BENCH_bus.json / BENCH_eddi.json / BENCH_fleet.json / BENCH_tick.json
# / BENCH_server.json (written by scripts/check.sh smoke runs) against
# the committed baselines in scripts/baselines/.
#
#   scripts/bench_gate.sh                    # gate against the baselines
#   UPDATE_BASELINE=1 scripts/bench_gate.sh  # accept the fresh numbers
#
# Two thresholds per bench:
#   - speedup (fast vs in-process reference) below 80% of baseline fails.
#     Both paths see the same machine noise, so the ratio is stable and
#     a >20% drop means the fast path genuinely regressed.
#   - absolute throughput below 50% of baseline fails, and an absolute
#     wall-clock time above 2x baseline fails. Wall-clock numbers swing
#     with load, so these are deliberately loose: they only catch
#     order-of-magnitude collapses, not scheduler noise.
# Refresh the baselines when moving to different hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_DIR="scripts/baselines"

# First numeric value for a key in a JSON report. Both bench reports
# print the optimized/fast object before the reference object, so the
# first occurrence is always the accelerated path's number.
extract() {
    grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk -F': ' '{print $2}'
}

# gate <fresh_file> <key> <min_fraction> <label>
gate() {
    local fresh_file="$1" key="$2" min_fraction="$3" label="$4"
    local baseline_file="$BASELINE_DIR/$(basename "$fresh_file")"
    if [[ ! -f "$fresh_file" ]]; then
        echo "bench_gate: $fresh_file missing — run scripts/check.sh first" >&2
        exit 1
    fi
    if [[ ! -f "$baseline_file" ]]; then
        echo "bench_gate: no baseline $baseline_file — run UPDATE_BASELINE=1 scripts/bench_gate.sh" >&2
        exit 1
    fi
    local fresh baseline
    fresh="$(extract "$fresh_file" "$key")"
    baseline="$(extract "$baseline_file" "$key")"
    if [[ -z "$fresh" || -z "$baseline" ]]; then
        echo "bench_gate: could not extract $key from $fresh_file / $baseline_file" >&2
        exit 1
    fi
    if awk -v f="$fresh" -v b="$baseline" -v m="$min_fraction" 'BEGIN { exit !(f < m * b) }'; then
        echo "bench_gate: FAIL — $label $key regressed below ${min_fraction}x baseline: $fresh vs $baseline" >&2
        exit 1
    fi
    echo "bench_gate: $label $key $fresh vs baseline $baseline — ok"
}

# gate_max <fresh_file> <key> <max_multiple> <label> — inverted gate for
# latency-style metrics where *higher* is worse: fail when the fresh
# value exceeds max_multiple x baseline.
gate_max() {
    local fresh_file="$1" key="$2" max_multiple="$3" label="$4"
    local baseline_file="$BASELINE_DIR/$(basename "$fresh_file")"
    if [[ ! -f "$fresh_file" ]]; then
        echo "bench_gate: $fresh_file missing — run scripts/check.sh first" >&2
        exit 1
    fi
    if [[ ! -f "$baseline_file" ]]; then
        echo "bench_gate: no baseline $baseline_file — run UPDATE_BASELINE=1 scripts/bench_gate.sh" >&2
        exit 1
    fi
    local fresh baseline
    fresh="$(extract "$fresh_file" "$key")"
    baseline="$(extract "$baseline_file" "$key")"
    if [[ -z "$fresh" || -z "$baseline" ]]; then
        echo "bench_gate: could not extract $key from $fresh_file / $baseline_file" >&2
        exit 1
    fi
    if awk -v f="$fresh" -v b="$baseline" -v m="$max_multiple" 'BEGIN { exit !(f > m * b) }'; then
        echo "bench_gate: FAIL — $label $key regressed above ${max_multiple}x baseline: $fresh vs $baseline" >&2
        exit 1
    fi
    echo "bench_gate: $label $key $fresh vs baseline $baseline — ok"
}

update() {
    local fresh_file="$1"
    if [[ ! -f "$fresh_file" ]]; then
        echo "bench_gate: $fresh_file missing — run scripts/check.sh first" >&2
        exit 1
    fi
    mkdir -p "$BASELINE_DIR"
    cp "$fresh_file" "$BASELINE_DIR/$(basename "$fresh_file")"
    echo "bench_gate: baseline $BASELINE_DIR/$(basename "$fresh_file") updated"
}

if [[ "${UPDATE_BASELINE:-0}" == "1" ]]; then
    update BENCH_bus.json
    update BENCH_eddi.json
    update BENCH_fleet.json
    update BENCH_recovery.json
    update BENCH_tick.json
    update BENCH_server.json
    exit 0
fi

gate BENCH_bus.json   speedup           0.8 busbench
gate BENCH_bus.json   msgs_per_sec      0.5 busbench
gate BENCH_eddi.json  speedup           0.8 eddibench
gate BENCH_eddi.json  ticks_per_sec     0.5 eddibench
# The SafeML monitor on its own: the rank-indexed KS assessment() against
# the naive dissimilarity() + verdict() pair on the same samples, timed
# in the same rounds (median round), so both sides see the same noise.
gate BENCH_eddi.json  safeml_speedup    0.8 eddibench-safeml
# Construction: serial UavEddiRuntime::new per UAV. It is absolute wall
# clock with no in-process reference to divide by, so the ceiling is
# loose (see the header): it catches a collapsed kernel, not noise.
# fleet_build_ms (the 200-UAV Platform::new, fanned out over the pool) is
# reported but not gated: on a 2-vCPU guest the scheduler at times runs
# both pool threads on one vCPU for whole runs, which alone doubles it.
gate_max BENCH_eddi.json construct_us_per_uav 2.0 eddibench-construct
# fleetbench's headline is the largest fleet's per-UAV throughput; the
# sharded/serial speedup hovers near 1.0 on small machines (Auto stays
# serial below the core budget), so only the absolute floor is gated.
gate BENCH_fleet.json uav_ticks_per_sec 0.5 fleetbench
# The nearest-teammate scan on its own: the sort-and-sweep against the
# brute-force haversine over every pair, on the same 200-UAV telemetry
# snapshots (median snapshot), so both sides see the same noise.
gate BENCH_fleet.json airspace_speedup  0.8 fleetbench-airspace
# Allocation ceilings: allocations per tick are deterministic for a fixed
# workload, so more than 10% over baseline means a new per-UAV
# allocation on the quiet path (DESIGN.md, "Hot-loop memory discipline").
gate_max BENCH_fleet.json allocs_per_tick 1.1 fleetbench
# Recovery workload: throughput under injected compute faults with the
# full containment machinery live (isolation, quarantine, revival
# probes, watchdog demotion). Floors only — the faulted/clean ratio
# wobbles because quarantined UAVs skip EDDI work.
gate BENCH_recovery.json uav_ticks_per_sec 0.5 fleetbench-recovery
# tickbench times the shipping platform alone, with no reference
# platform to divide by, so only the 3-UAV steady state's absolute
# ticks/sec floor is gated. The fast EDDI + ConSert path's ratio over the
# reference runtimes is gated above, as eddibench's speedup.
gate BENCH_tick.json ticks_per_sec 0.5 tickbench
gate_max BENCH_tick.json allocs_per_tick 1.1 tickbench
# Campaign-service soak: absolute throughput floors (loose, wall-clock
# bound) plus a tail-latency ceiling — submit→complete p99 more than 4x
# the baseline means the scheduler or the log path got slow, even if
# throughput survived.
gate BENCH_server.json runs_per_sec      0.5 serverbench
gate BENCH_server.json campaigns_per_sec 0.5 serverbench
gate_max BENCH_server.json latency_p99_ms 4.0 serverbench
