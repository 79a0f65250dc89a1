#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
#
#   ./verify.sh          full gate (build, tests, workspace clippy -D warnings)
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
# The root Cargo.toml's `default-members` makes the bare command cover
# them, so this is the tier-1 `cargo test -q` itself.
stage cargo test -q

stage cargo test --release -q --test conformance

# The store's differential suites in release mode — the B-tree vs std
# BTreeMap (100k-step schedules at both orders) and NicIndex vs its
# naive reference (lock table, inline records, write buffer: lock
# states, eviction counts, range-walk rows and visit counts, and a
# scan's collected rows with each row's stop-here visit count at every
# limit) — so the optimized build is what the randomized schedules
# exercise.
stage cargo test --release -q -p xenic-store --test btree_differential
stage cargo test --release -q -p xenic-store --test nic_index_differential

# The benchmark crate lives outside the workspace and compiles against
# the crates' public API; build and smoke-run it here so an API break
# fails this gate rather than the next benchmark run.
stage cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload ycsbe_scan

# TPC-C's short pair drives the local fast path (host version reads,
# NIC lock + check) and the commit install and log apply at primary and
# backups, checking fingerprint, digest and p50/p99 against the run
# with tracer and history recorder attached (~10 s).
stage cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload tpcc_full

# The lanes workload's short pair is the one stage that drives tracer
# and history recorder through the harness on two lanes and checks
# fingerprint, digest, p50/p99 and "tracer dropped no event" against an
# untraced run. The benchmark refuses that workload on one core.
if [[ $(nproc) -ge 2 ]]; then
    stage cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --quick --workload smallbank_64n_lanes2
else
    echo "==> skipped: benchmark --quick --workload smallbank_64n_lanes2 (needs 2 cores, have $(nproc))"
fi

# The whole config product under one referee (DESIGN.md §12): every
# serial cell of engine x backend x substrate x plan shape on the three
# synthetic workloads (234), plus the pairwise sample that carries lanes
# {2,4} and the real workloads with its serial siblings (268 cells in
# all; ~5 s at --jobs 2). Each must commit, verify serializable and
# (Xenic) lose no commit. Every cell, baseline cells included, is then
# drained, digested and audited for residue (no lock, sentinel or live
# coordinator context; crash plans report it only); outcomes must not
# depend on lanes. Then the four checker
# self-tests: weak-validation, weak-predicates, weak-cxl and weak-quorum
# must each be rejected with a shrunk, twice-replayed witness. The
# `product fingerprint <hex>` line folds every cell's (token, committed,
# aborted, digest, processed): the stage fails unless it prints the
# pinned line below, so a change that moves any cell must re-pin it
# (and say why in CHANGES.md).
FUZZ_PIN="product fingerprint 9f55f7b4f569bd56 (268 cells)"
serial_fuzz_pinned() {
    local out
    out=$(cargo run --release -q -p xenic-bench --bin serial_fuzz -- --jobs "$(nproc)") \
        || { echo "$out"; return 1; }
    echo "$out"
    if ! grep -qF "$FUZZ_PIN" <<<"$out"; then
        echo "serial_fuzz: expected the pinned line '$FUZZ_PIN'"
        return 1
    fi
}
stage serial_fuzz_pinned

# The micro figures drive the runtime's egress paths (DESIGN.md §6, §8):
# fig2_latency every RDMA verb, fig3_batching both aggregation settings,
# fig4_dma both DMA modes (~5 s together). Their stdout is pinned byte for
# byte: the stage diffs each binary's output against its golden file in
# crates/bench/golden/ and fails on any difference, printing the lines
# that moved, so a change that moves any number must update the golden
# file (and say why in CHANGES.md).
micro_figs_pinned() {
    local bin out=target/micro_figs
    mkdir -p "$out"
    for bin in fig2_latency fig3_batching fig4_dma; do
        cargo run --release -q -p xenic-bench --bin "$bin" >"$out/$bin.txt" || return 1
        if ! diff -u "crates/bench/golden/$bin.txt" "$out/$bin.txt"; then
            echo "$bin: stdout differs from crates/bench/golden/$bin.txt"
            return 1
        fi
    done
}
stage micro_figs_pinned

# Conservation under loss+dup, convergence across a healed partition,
# and crash/restart chained into shard recovery — on the native backend
# and for each pluggable one — all under xenic::audit's post-drain
# referee (no lock, sentinel or replication residue).
stage cargo test --release -q --test chaos

# The multi-lane scheduler (DESIGN.md §16, §18) must reproduce the
# serial scheduler bit for bit: every multi-lane cell of the fuzzer's
# pairwise sample against its serial sibling (fingerprint, latencies,
# History; barriers > 0), traced runs (byte-equal chrome_json and
# gauges_csv at lanes {1,2,4}), a drain to SimTime::MAX on two lanes,
# plus pinned 64- and 256-node fingerprints (256 nodes at every lane
# count).
stage cargo test --release -q --test lanes

# Availability/throughput/latency per backend at two fault rates; every
# row's history is verified serializable, and the binary exits non-zero
# on any violation.
stage cargo run --release -q -p xenic-bench --bin repl_sweep -- --quick

# The substrate contract (DESIGN.md §17): pinned OnPathLiquidIO
# (p50/p99 included), BlueField and CXL fingerprints, the off-path cliff
# measured from the schedule (BlueField slower at p50 and p99, fewer
# commits) and the CXL zero-log-shipping trade.
stage cargo test --release -q --test substrate

# Substrate × workload; every row verified serializable and the off-path
# cliff + CXL log trade enforced as hard orderings.
stage cargo run --release -q -p xenic-bench --bin substrate_sweep -- --quick

if [[ "${1:-}" != "--quick" ]]; then
    stage cargo clippy --workspace --all-targets -- -D warnings
fi

echo "verify: OK"
