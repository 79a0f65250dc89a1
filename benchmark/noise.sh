#!/usr/bin/env bash
# Runs the current build against itself: two alternating sets (A, B) of
# RUNS runs per workload, run i of both sets on seed i, exactly as
# BENCHMARK.json's command runs them. Reports, per workload and
# end-to-end metric, both medians, their difference, each set's spread
# (interquartile range over median) and the bound from BENCHMARK.json.
#
# Exits non-zero if two medians of the same code disagree by more than
# the metric's bound, if a spread (setup_s aside) exceeds it, if a run is
# not correct, or if a deterministic number differs between two runs on
# the same seed: the fingerprint and model_* exactly, allocations per
# commit within 0.01 % (the lane workers' channel and buffer allocations
# depend on which lane finishes an epoch first: a few in two million).
# Every run's numbers are appended to benchmark/out/noise.jsonl.
#
#   benchmark/noise.sh [RUNS (default 5)] [workload ...]     from the repo root
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
args = sys.argv[1:]
runs = int(args.pop(0)) if args and args[0].isdigit() else 5
workloads = args or [w["name"] for w in spec["workloads"]]
exact = {"host_allocs_per_commit": 1e-4, "model_tput_per_server": 0, "model_p50_ns": 0, "model_p99_ns": 0}
failures = []


def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    summary = json.load(open(f"benchmark/out/{workload}-seed{seed}-summary.json"))
    if not result["correct"] or result["failed"]:
        failures.append(f"{workload} seed {seed}: run not correct")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    with open("benchmark/out/noise.jsonl", "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, **values}) + "\n")
    return values, summary["fingerprint"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


for workload in workloads:
    sets = {"A": [], "B": []}
    for seed in range(1, runs + 1):
        pair = {}
        for name in ("A", "B") if seed % 2 else ("B", "A"):
            pair[name] = run(workload, seed)
            sets[name].append(pair[name][0])
            print(f"  {workload} seed {seed} set {name} done", file=sys.stderr)
        (a, fa), (b, fb) = pair["A"], pair["B"]
        if fa != fb:
            failures.append(f"{workload} seed {seed}: fingerprints differ: {fa} vs {fb}")
        for name, tolerance in exact.items():
            if abs(a[name] - b[name]) > tolerance * a[name]:
                failures.append(f"{workload} seed {seed}: {name} differs: {a[name]} vs {b[name]}")
    print(f"\n{workload}: {runs} runs per set, seeds 1..{runs}")
    print(f"  {'metric':<24}{'median A':>15}{'median B':>15}{'B vs A':>9}"
          f"{'spread A':>10}{'spread B':>10}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in sets["A"]]
        b = [r[name] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        sa, sb = spread(a), spread(b)
        verdict = ""
        if abs(diff) > bound:
            verdict = "  MEDIANS DISAGREE"
            failures.append(f"{workload} {name}: medians differ by {diff:+.2%}, bound {bound:.0%}")
        if name != "setup_s" and max(sa, sb) > bound:
            verdict += "  SPREAD OVER BOUND"
            failures.append(f"{workload} {name}: spread {max(sa, sb):.2%}, bound {bound:.0%}")
        print(f"  {name:<24}{ma:>15.4f}{mb:>15.4f}{diff:>+9.2%}{sa:>10.2%}{sb:>10.2%}{bound:>8.0%}{verdict}")

print()
for f in failures:
    print("FAIL:", f)
print("noise check:", "FAILED" if failures else "passed")
sys.exit(1 if failures else 0)
PY
