//! The repo's benchmark. See `benchmark/README.md` for the estimator and
//! the glossary; `BENCHMARK.json` at the repo root for the contract.
//!
//! `xenic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  [--quick] [--out <dir>]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod layers;
mod passes;
mod probes;
mod report;
mod run;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use xenic::harness::cluster_digest;

use passes::{Checks, Expect, SHORT_WINDOW};
use report::{min_of, quantile_interpolated, Metrics};
use run::{Plan, SLICES};
use workloads::Wl;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed repeats of a `--trace 1` run: enough to price the tracing; the
/// rest of the time goes to the traced passes.
const TRACED_RUN_REPEATS: usize = 3;
/// Latency samples p99 needs behind it (100 beyond the percentile).
const MIN_LATENCY_SAMPLES: u64 = 10_000;

pub struct Args {
    workloads: Vec<Wl>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Wl::ALL.to_vec(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let wl = Wl::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Wl::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?;
                args.workloads = vec![wl];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Refuse before measuring anything: no number from a host where the
    // lanes cannot run side by side.
    if let Some(wl) = args.workloads.iter().find(|w| w.lanes() > report::cores()) {
        eprintln!("error: {} needs {} cores, this host has {}", wl.name(), wl.lanes(), report::cores());
        return ExitCode::from(3);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let facts = report::host_facts();
    let mut all_correct = true;
    for &wl in &args.workloads {
        all_correct &= run_workload(wl, &args, &facts);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload, prints its report, and returns whether every
/// check passed.
fn run_workload(wl: Wl, args: &Args, facts: &str) -> bool {
    let window = if args.quick { SHORT_WINDOW } else { wl.window() };
    let plan = Plan::new(wl, args.seed, window);
    let mut checks = Checks::default();
    let quick_note = if args.quick { "  [--quick: numbers NOT comparable with full runs]" } else { "" };
    println!(
        "# {} seed {} window {} us x {SLICES} slices{quick_note}",
        wl.name(),
        args.seed,
        window.as_us_f64()
    );

    // Repeat 0: untimed (first-touch page faults), allocations counted,
    // fingerprint taken, peak RSS read right after it.
    let (r0, mut cluster0) = run::plain(&plan, true);
    let rss_mb = report::peak_rss_mb();
    let digest0 = cluster_digest(&cluster0);
    let expect = Expect { fingerprint: &r0.fingerprint, digest: digest0 };
    let w = &r0.window;
    let commits = w.committed_all;

    // Layer numbers that read repeat 0's cluster, then the probes (which
    // disturb its cache statistics), then the cluster goes.
    let mut layer = Metrics::default();
    let probe = args.trace.then(|| {
        layers::exact(&r0, &cluster0, &mut layer);
        let params = cluster0.rt.params.clone();
        probes::run(&mut cluster0.states[0], &params, r0.queue_len_mean().round() as usize, args.seed)
    });
    drop(cluster0);

    // Under --quick repeat 0 already is a short repeat.
    let short = (!args.quick).then(|| {
        let (rep, cluster) = run::plain(&Plan::new(wl, args.seed, SHORT_WINDOW), false);
        (rep, cluster_digest(&cluster))
    });
    let (ours, ours_digest) = short.as_ref().map_or((&r0, digest0), |(r, d)| (r, *d));
    let observed = passes::short_pair(wl, args.seed, ours, ours_digest, &mut checks);

    let (min_repeats, budget) = match (args.quick, args.trace) {
        (true, _) => (1, 0.0),
        (false, true) => (TRACED_RUN_REPEATS, 0.0),
        (false, false) => (wl.min_repeats(), args.seconds),
    };
    let timed = passes::timed_repeats(&plan, min_repeats, budget, expect, "timed", &mut checks);
    let repeats = timed.slices.len();
    let window_s = timed.window_s();
    let slice_spread_pct = timed.spread_pct();

    let samples = w.latency.count();
    let mut e2e = Metrics::default();
    e2e.push("setup_s", "s", min_of(&timed.build_s));
    e2e.push("host_us_per_commit", "us", window_s * 1e6 / commits.max(1) as f64);
    e2e.push("host_allocs_per_commit", "count", r0.window_allocs as f64 / commits.max(1) as f64);
    e2e.push("host_peak_rss_mb", "MB", rss_mb);
    e2e.push("model_tput_per_server", "1/s", passes::tput_per_server(&r0, wl.nodes()));
    e2e.push("model_p50_ns", "ns", quantile_interpolated(&w.latency, 0.5));
    e2e.push("model_p99_ns", "ns", quantile_interpolated(&w.latency, 0.99));
    checks.add("transactions committed in the window", commits > 0 && w.committed > 0);
    if !args.quick {
        checks.add(
            format!("p99 is backed by {samples} latency samples (>= {MIN_LATENCY_SAMPLES})"),
            samples >= MIN_LATENCY_SAMPLES,
        );
    }

    let stem = format!("{}-seed{}", wl.name(), args.seed);
    let run_facts = format!(
        "{facts}, \"workload\": \"{}\", \"seed\": {}, \"repeats\": {repeats}, \"slices\": {SLICES}, \
         \"window_us\": {}, \"warmup_us\": {}, \"quick\": {}",
        wl.name(),
        args.seed,
        window.as_us_f64(),
        run::WARMUP.as_us_f64(),
        args.quick
    );
    // Kept so that a noisy run can be diagnosed after the fact.
    write_out(args, &format!("{stem}-slices.tsv"), &report::slices_tsv(&run_facts, &r0, &timed));

    let mut identity = String::new();
    if let Some(probe) = probe {
        let traced =
            layers::Traced { plan: &plan, r0: &r0, expect, timed: &timed, observed: &observed, probe };
        let xenic_tput = passes::tput_per_server(&r0, wl.nodes());
        let (trace_json, text) = traced.run(args.quick, &run_facts, xenic_tput, &mut layer, &mut checks);
        write_out(args, &format!("{stem}-trace.json"), &trace_json);
        identity = text;
    }

    let correct = checks.all();
    println!(
        "end to end ({repeats} timed repeats, slice spread {slice_spread_pct:.1} %, {samples} latency samples):"
    );
    print!("{}", e2e.table());
    if args.trace {
        println!("per layer (0 = does not apply to this workload):");
        print!("{}{identity}", layer.table());
    }
    let f = &r0.fingerprint;
    let fingerprint = format!(
        "\"committed\": {}, \"aborted\": {}, \"events\": {}, \"digest\": \"{digest0:#018x}\"",
        f.committed, f.aborted, f.events
    );
    println!("fingerprint: {fingerprint}");
    println!("  (a change meant only to speed the simulator must reproduce this line and the three model_* values exactly)");
    println!("{facts}");
    let failed = if correct { 0 } else { commits };
    let outcome = format!("\"correct\": {correct}, \"attempted\": {commits}, \"failed\": {failed}");
    let check_list: Vec<String> = checks
        .0
        .iter()
        .map(|(name, ok)| format!("{{\"check\": \"{}\", \"ok\": {ok}}}", name.replace('"', "'")))
        .collect();
    write_out(
        args,
        &format!("{stem}-summary.json"),
        &format!(
            "{{\n\"host\": {{{run_facts}}},\n\"fingerprint\": {{{fingerprint}}},\n{outcome},\n\"checks\": [{}],\n\
             \"end_to_end\": {},\n\"per_layer\": {},\n\"claim\": null\n}}\n",
            check_list.join(", "),
            e2e.json(),
            layer.json(),
        ),
    );
    let printed = if args.trace { &layer } else { &e2e };
    println!("{{{outcome}, \"metrics\": {}}}", printed.json());
    correct
}

fn write_out(args: &Args, file: &str, body: &str) {
    let path = args.out.join(file);
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}
