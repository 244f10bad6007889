#!/usr/bin/env bash
# Full pre-merge gate: release build, the whole test suite, and clippy
# with warnings promoted to errors. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root package: tier-1 gate)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> chaos smoke: 10 seeded random-fault scenario runs at --jobs 4 must stay panic-free"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release -p sesame-bench --bin chaos -- 10 smoke --jobs 4 > "$tmpdir/parallel.txt"

echo "==> determinism gate: serial vs parallel chaos reports must be byte-identical"
cargo run -q --release -p sesame-bench --bin chaos -- 10 smoke --jobs 1 > "$tmpdir/serial.txt"
if ! diff -u "$tmpdir/serial.txt" "$tmpdir/parallel.txt"; then
    echo "FAIL: --jobs 4 chaos report diverged from the serial (--jobs 1) report" >&2
    exit 1
fi

echo "==> panic-injection soak: 50 seeds with scheduled compute faults (EDDI panics, NaN telemetry, solver stalls) must isolate every fault — zero aborts"
cargo run -q --release -p sesame-bench --bin chaos -- 50 smoke panics --jobs 4 > "$tmpdir/panics_parallel.txt"
cargo run -q --release -p sesame-bench --bin chaos -- 50 smoke panics --jobs 1 > "$tmpdir/panics_serial.txt"
if ! diff -u "$tmpdir/panics_serial.txt" "$tmpdir/panics_parallel.txt"; then
    echo "FAIL: panic-injection campaign diverged between --jobs 1 and --jobs 4" >&2
    exit 1
fi

echo "==> busbench smoke: zero-copy fanout must hold its 3x margin over the reference bus"
cargo run -q --release -p sesame-bench --bin busbench -- smoke > BENCH_bus.json
cat BENCH_bus.json

echo "==> eddibench smoke: the incremental EDDI fast path must hold its 3x margin over the reference runtime"
cargo run -q --release -p sesame-bench --bin eddibench -- smoke > BENCH_eddi.json
cat BENCH_eddi.json

echo "==> fleetbench smoke: sharded fleet ticks (3..200 UAVs) must keep shard-count invariance against the one-shard plan and hold throughput"
cargo run -q --release -p sesame-bench --bin fleetbench -- smoke > BENCH_fleet.json
cat BENCH_fleet.json

echo "==> fleetbench recovery: supervised tick under injected panics must stay plan-independent and hold throughput"
cargo run -q --release -p sesame-bench --bin fleetbench -- smoke --inject-panics --jobs 4 > BENCH_recovery.json
cat BENCH_recovery.json

echo "==> tickbench smoke: end-to-end platform ticks/sec must hold the 3x margin over the reference path with bit-identical digests"
cargo run -q --release -p sesame-bench --bin tickbench -- smoke > BENCH_tick.json
cat BENCH_tick.json

echo "==> serverbench soak: 8 clients x 34 campaigns with a mid-campaign kill-and-restart; every run must replay digest-identically from the log — zero aborts"
cargo run -q --release -p sesame-bench --bin serverbench -- smoke --jobs 4 > BENCH_server.json
cat BENCH_server.json

echo "==> run-log corruption properties: torn tails, flipped bits and torn replays must all be refused with typed errors"
SESAME_FUZZ_CASES=512 cargo test -q -p sesame-server

echo "==> scenario library: every .sesame file must compile, validate and smoke-run"
cargo run -q --release -p sesame-bench --bin scenario -- check scenarios/*.sesame
cargo run -q --release -p sesame-bench --bin scenario -- smoke scenarios/*.sesame

echo "==> scenario DSL fuzz: parser/compiler never panic, spans stay in range, print is a parse fixed point (2048 cases/property)"
SESAME_FUZZ_CASES=2048 cargo test -q -p sesame-scenario-dsl --test fuzz

echo "==> airspace oracle: the chord-pruned nearest-teammate scan must match the brute-force haversine scan bit for bit (2048 cases)"
SESAME_FUZZ_CASES=2048 cargo test -q --release -p sesame-core --test airspace_oracle

echo "==> risk-tape lockstep: the compiled SINADRA query tapes must match variable elimination bit for bit (2048 cases)"
SESAME_FUZZ_CASES=2048 cargo test -q --release -p sesame-sinadra --test risk_tape_lockstep

echo "==> bench gate: fresh numbers vs committed baselines (>20% regression fails)"
scripts/bench_gate.sh

echo "OK: build, tests, clippy, fmt, parallel chaos smoke, determinism diff, panic-injection soak, busbench, eddibench, fleetbench, the recovery bench, tickbench, the server soak, the run-log properties, the scenario library smoke, the DSL fuzz suite, the airspace oracle, the risk-tape lockstep and the bench gate all green"
