#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
#
#   ./verify.sh          full gate (build, tests, clippy -D warnings)
#   ./verify.sh --quick  skip clippy (fast local loop)
set -euo pipefail
cd "$(dirname "$0")"

# stage <command...>: echo the command, run it, print its wall time.
stage() {
    echo "==> $*"
    local t0=$SECONDS
    "$@"
    echo "    ($((SECONDS - t0)) s)"
}

stage cargo build --release

# Every crate's unit and integration suites, not just the root
# package's: NicIndex, SmallVec, queue_differential, engine_behaviors,
# baseline_behaviors and tpcc_consistency live in the member crates.
stage cargo test --workspace -q

stage cargo test --release -q --test conformance

# The store's differential suites in release mode — the B-tree vs std
# BTreeMap (100k-step schedules at both orders) and NicIndex vs its
# naive reference (lock table, inline records, write buffer: lock
# states, eviction counts, range-walk rows and visit counts) — so the
# optimized build is what the randomized schedules exercise.
stage cargo test --release -q -p xenic-store --test btree_differential
stage cargo test --release -q -p xenic-store --test nic_index_differential

# The benchmark crate lives outside the workspace and compiles against
# the crates' public API; build and smoke-run it here so an API break
# fails this gate rather than the next benchmark run.
stage cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload ycsbe_scan

# The counting allocator's overhead is one relaxed atomic per allocation
# — noise — so the gated run also refreshes BENCH_simperf.json with both
# throughput and allocs/event. Budgets sit ~15 % above the measured
# steady state (retwis 555, chaos 555, tpcc_mix 2155, ycsbe 723,
# tpcc_stock 2283 allocs/kevent) so hot-path re-fattening trips them.
stage cargo run --release -q -p xenic-bench --features alloc-count --bin perf_report -- \
    --quick --alloc-budget retwis_fig8=650,chaos_replay=650,tpcc_mix=2500,ycsbe_mix=850,tpcc_stock=2650

# Includes all four checker self-tests: xenic-weakened (skipped version
# re-checks), xenic-weak-predicates (skipped range re-walks),
# xenic-weak-quorum (Raft-style backend commits before its majority),
# and xenic-weak-cxl (CXL coherence fence and pool re-check skipped)
# must each be rejected with a shrunk, bit-for-bit-replayable witness.
stage cargo run --release -q -p xenic-bench --bin serial_fuzz -- --quick

# Conservation under loss+dup, convergence across a healed partition,
# and crash/restart chained into shard recovery — for each pluggable
# replication backend (log shipping, Raft-style, Hermes-style).
stage cargo test --release -q --test chaos all_backends_

# The multi-lane scheduler (DESIGN.md §16, §18) must reproduce the
# serial scheduler bit for bit: workload × backend × fault-plan matrix
# at lanes {1,2,4,8}, the group-aware assignment matrix on 4 aligned
# replica groups, plus pinned 64- and 256-node fingerprints (the
# 256-node run checked at every lane count under both assignments).
stage cargo test --release -q --test lanes

# Same contract on 64-node clusters via the scaling report binary: the
# run exits non-zero if any lane count's fingerprint (committed/aborted/
# digest/events) diverges from serial, or if the shard-group assignment
# fails to cut >= 5% of cross-lane events on the 7-group topology
# (measured ~10% at 8 lanes). Wall-clock speedup is reported but not
# gated here (CI cores vary); on a multicore host the bar is
# `--min-speedup 1.5`.
stage cargo run --release -q -p xenic-bench --bin lane_scaling -- --quick --min-cross-lane-reduction 0.05

# Availability/throughput/latency per backend at two fault rates; every
# row's history is verified serializable, and the binary exits non-zero
# on any violation.
stage cargo run --release -q -p xenic-bench --bin repl_sweep -- --quick

# The substrate/placement contract (DESIGN.md §17): OnPathLiquidIO
# byte-identical to the pre-refactor pins (p50/p99 included), pinned
# BlueField/CXL fingerprints, the off-path cliff ordering, the CXL
# zero-log-shipping trade, and placement differentials (same outcomes,
# different latency) under chaos for every replication backend.
stage cargo test --release -q --test substrate

# Substrate × placement × workload; every row verified serializable and
# the off-path cliff + CXL log trade enforced as hard orderings.
stage cargo run --release -q -p xenic-bench --bin substrate_sweep -- --quick

if [[ "${1:-}" != "--quick" ]]; then
    stage cargo clippy --all-targets -- -D warnings
fi

echo "verify: OK"
