#!/bin/sh
# Regenerates every paper table and figure into results/.
# Each simulation is single-threaded and deterministic, but the sweep
# harnesses (fig8_sweep, fig9_ablation, cache_pressure, fault_sweep) run
# independent points on worker threads: JOBS=N (default: all cores)
# controls the fan-out, and output is byte-identical regardless of N.
# Add --fast to fig8_sweep for a quick pass.
set -e
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"
cargo build --release -p xenic-bench --bins
mkdir -p results
run() { echo "== $1"; ./target/release/"$1" ${2:-} | tee "results/$1.txt"; }
run fig2_latency
run fig3_batching
run fig4_dma
run table1_cores
run table2_lookup
echo "== fig8_sweep all"; ./target/release/fig8_sweep all --jobs "$JOBS" | tee results/fig8_all.txt
run table3_threads
run fig9_ablation "--jobs $JOBS"
run drtmr_comparison
run cache_pressure "--jobs $JOBS"
run phase_breakdown
echo "All experiments complete; outputs in results/."
