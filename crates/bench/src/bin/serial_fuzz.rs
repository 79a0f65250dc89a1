//! Schedule-exploration serializability fuzzer.
//!
//! Sweeps deterministic `(system, seed, plan)` points through Xenic (full,
//! Figure 9 ablation) and all four baselines, records every committed
//! transaction's read/write sets, and verifies each history against
//! Adya's DSG (`xenic-check`). Every point is replayable bit for bit,
//! and the first three plus the first baseline point are re-run on two
//! scheduler lanes, which must not change the verdict or the history.
//!
//! The sweep ends with four checker self-tests: Xenic with
//! `weaken_validation` (Validate's version re-check skipped) **must** be
//! rejected with a witness cycle, Xenic with `weaken_predicate_locks`
//! (Validate's range re-walks skipped) **must** be rejected with a
//! phantom (predicate-rw) cycle under the scan workload, the
//! Raft-style replication backend with `weaken_quorum` (commit before
//! the majority logged, no post-commit retransmission) **must** be
//! rejected under lossy plans — the wire eats an unretried append or
//! commit record and the post-drain durability audit pins the
//! evaporated commit to an exact key/version — and Xenic on the CXL
//! substrate with `weaken_cxl_coherence` (Validate's pool re-check and
//! coherence fence skipped, DESIGN.md §17) **must** be rejected with a
//! G2 cycle under the skew crossfire. Each failing point is
//! shrunk, replayed bit for bit, and its replay command printed. If the
//! checker lets any weakened engine pass, this binary exits non-zero —
//! a green run certifies both the engines and the checker's teeth.
//!
//! ```text
//! serial_fuzz [--quick] [--jobs N]          # sweep + self-test
//! serial_fuzz --replay --system S --seed N --plan P --windows W --measure-us M
//! ```

use xenic_bench::fuzz::{
    expand_plan, replay_cmd, run_point, run_point_on, shrink, FuzzPoint, FuzzSystem, PointOutcome,
    WlKind,
};
use xenic_bench::{args, par_points, plan_or_exit};

fn main() {
    let jobs = args::jobs();

    if args::flag("--replay") {
        std::process::exit(replay());
    }

    let quick = args::flag("--quick");
    let points = if quick { quick_points() } else { sweep_points() };

    let systems: std::collections::BTreeSet<&str> =
        points.iter().map(|p| p.system.token()).collect();
    println!(
        "# serial_fuzz: {} points across {} systems ({} jobs)",
        points.len(),
        systems.len(),
        jobs
    );
    let outcomes = par_points(jobs, &points, run_point);
    let mut failures = Vec::new();
    for (p, out) in points.iter().zip(&outcomes) {
        let status = if out.passed() { "ok" } else { "FAIL" };
        println!(
            "{status:>4}  {:<14} seed={:<3} plan={} windows={} committed={:<6} {}",
            p.system.token(),
            p.seed,
            p.plan,
            p.windows,
            out.committed,
            summary(out)
        );
        if !out.passed() {
            failures.push(*p);
        }
    }

    // The referee on the scheduler users run (DESIGN.md §16): the first
    // three points and the first baseline point again on two lanes must
    // reach the identical verdict over a history of the identical size.
    let baseline = points.iter().position(|p| {
        use FuzzSystem::{DrtmH, DrtmHNc, DrtmR, Fasst};
        matches!(p.system, DrtmH | DrtmHNc | Fasst | DrtmR)
    });
    for i in (0..points.len().min(3)).chain(baseline) {
        let (p, serial) = (&points[i], &outcomes[i]);
        let par = run_point_on(p, 2);
        let key = |o: &PointOutcome| (o.passed(), o.committed, o.report.txns, o.report.edges);
        let status = if key(&par) == key(serial) { "ok" } else { "FAIL" };
        println!(
            "{status:>4}  {:<14} seed={:<3} plan={} lanes=2 {}",
            p.system.token(),
            p.seed,
            p.plan,
            summary(&par)
        );
        if key(&par) != key(serial) {
            eprintln!("\nlanes=2 diverged from the serial verdict ({})", summary(serial));
            std::process::exit(1);
        }
    }

    for p in &failures {
        let small = shrink(*p);
        let out = run_point(&small);
        println!("\nFAILURE shrunk to {:?}", small);
        println!("{}", describe(&out));
        println!("replay: {}", replay_cmd(&small));
    }

    // Checker self-tests: every weakened engine must be rejected.
    let ok_weaken = weaken_demo(jobs, quick);
    let ok_phantom = phantom_demo(jobs, quick);
    let ok_quorum = quorum_demo(jobs, quick);
    let ok_cxl = cxl_demo(jobs, quick);

    if !failures.is_empty() {
        eprintln!("\n{} fuzz point(s) failed verification", failures.len());
        std::process::exit(1);
    }
    if !ok_weaken {
        eprintln!("\nchecker self-test failed: weakened validation was not rejected");
        std::process::exit(1);
    }
    if !ok_phantom {
        eprintln!("\nchecker self-test failed: weakened predicate locks were not rejected");
        std::process::exit(1);
    }
    if !ok_quorum {
        eprintln!("\nchecker self-test failed: weakened replication quorum was not rejected");
        std::process::exit(1);
    }
    if !ok_cxl {
        eprintln!("\nchecker self-test failed: weakened CXL coherence was not rejected");
        std::process::exit(1);
    }
    println!(
        "\nall {} points serializable; all four checker self-tests passed",
        points.len()
    );
}

/// The full sweep: Xenic under every plan shape (including crashes),
/// the Figure 9 ablation under loss, the four baselines fault-free and
/// under loss (their RDMA lanes model a lossless fabric, so the plan
/// exercises schedule diversity rather than recovery).
fn sweep_points() -> Vec<FuzzPoint> {
    let mut pts = Vec::new();
    let point = |system, wl, seed, plan| FuzzPoint {
        system,
        wl,
        seed,
        plan,
        windows: 3,
        measure_us: 800,
    };
    for seed in 1..=4 {
        for plan in 0..=5 {
            pts.push(point(FuzzSystem::Xenic, WlKind::Mixed, seed, plan));
        }
    }
    // Sound Xenic must also survive the write-skew crossfire that the
    // checker self-test uses to break the weakened engine (the control
    // arm of that experiment).
    for seed in 1..=3 {
        for plan in [0, 1] {
            pts.push(point(FuzzSystem::Xenic, WlKind::Skew, seed, plan));
        }
    }
    for seed in 1..=2 {
        for plan in 0..=2 {
            pts.push(point(FuzzSystem::XenicFig9, WlKind::Mixed, seed, plan));
        }
    }
    // The alternative replication backends (DESIGN.md §15) carry the
    // same obligation under every plan shape — jitter, loss+dup, and
    // loss+crash all reorder their append/ack/retransmission schedules.
    for kind in [FuzzSystem::XenicRaft, FuzzSystem::XenicHermes] {
        for seed in 1..=2 {
            for plan in 0..=5 {
                pts.push(point(kind, WlKind::Mixed, seed, plan));
            }
        }
    }
    for kind in [
        FuzzSystem::DrtmH,
        FuzzSystem::DrtmHNc,
        FuzzSystem::Fasst,
        FuzzSystem::DrtmR,
    ] {
        for seed in 1..=2 {
            for plan in [0, 1] {
                pts.push(point(kind, WlKind::Mixed, seed, plan));
            }
        }
    }
    // Range scans under predicate crossfire. Only the two-sided systems
    // speak the scan protocol (the one-sided baselines have no scan
    // RPC), so the scan workload runs on the Xenic variants and FaSST.
    for seed in 1..=3 {
        for plan in 0..=2 {
            pts.push(point(FuzzSystem::Xenic, WlKind::Scan, seed, plan));
        }
    }
    for seed in 1..=2 {
        pts.push(point(FuzzSystem::XenicFig9, WlKind::Scan, seed, 0));
        for plan in [0, 1] {
            pts.push(point(FuzzSystem::Fasst, WlKind::Scan, seed, plan));
        }
    }
    // The alternative substrates (DESIGN.md §17) carry the full
    // obligation too: BlueField's shifted PCIe/DMA schedule and CXL's
    // pool-store log completions reorder every commit pipeline, so both
    // run under fault-free, jittered, lossy, and crash plans.
    for kind in [FuzzSystem::XenicBluefield, FuzzSystem::XenicCxl] {
        for seed in 1..=2 {
            for plan in [0, 1, 2, 5] {
                pts.push(point(kind, WlKind::Mixed, seed, plan));
            }
        }
        pts.push(point(kind, WlKind::Scan, 1, 0));
    }
    // Sound CXL must survive the skew crossfire that breaks the
    // weakened-coherence engine (the control arm of `cxl_demo`).
    for plan in [0, 1] {
        pts.push(point(FuzzSystem::XenicCxl, WlKind::Skew, 1, plan));
    }
    pts
}

/// The `--quick` smoke sweep for verify.sh: a handful of Xenic points
/// (fault-free, jittered, lossy) plus one baseline, then the self-test.
fn quick_points() -> Vec<FuzzPoint> {
    let point = |system, wl, seed, plan| FuzzPoint {
        system,
        wl,
        seed,
        plan,
        windows: 3,
        measure_us: 500,
    };
    vec![
        point(FuzzSystem::Xenic, WlKind::Mixed, 1, 0),
        point(FuzzSystem::Xenic, WlKind::Mixed, 2, 1),
        point(FuzzSystem::Xenic, WlKind::Skew, 3, 0),
        point(FuzzSystem::Xenic, WlKind::Scan, 1, 0),
        point(FuzzSystem::XenicRaft, WlKind::Mixed, 1, 0),
        point(FuzzSystem::XenicRaft, WlKind::Mixed, 1, 2),
        point(FuzzSystem::XenicHermes, WlKind::Mixed, 1, 0),
        point(FuzzSystem::XenicHermes, WlKind::Mixed, 1, 2),
        point(FuzzSystem::Fasst, WlKind::Scan, 1, 0),
        point(FuzzSystem::DrtmH, WlKind::Mixed, 1, 0),
        point(FuzzSystem::XenicBluefield, WlKind::Mixed, 1, 2),
        point(FuzzSystem::XenicCxl, WlKind::Mixed, 1, 1),
        point(FuzzSystem::XenicCxl, WlKind::Skew, 1, 0),
    ]
}

/// Runs the weakened-validation engine over a few seeds until the
/// checker rejects a history, then shrinks and prints the witness.
/// Returns success.
fn weaken_demo(jobs: usize, quick: bool) -> bool {
    // Jitter plans (1 mod 3) perturb message arrival order, widening the
    // window in which a skipped Validate lets a stale read commit.
    let seeds: Vec<u64> = if quick { (1..=3).collect() } else { (1..=6).collect() };
    let plans: &[u32] = if quick { &[0, 1] } else { &[0, 1, 2, 4] };
    let mut pts = Vec::new();
    for &plan in plans {
        for &seed in &seeds {
            pts.push(FuzzPoint {
                system: FuzzSystem::XenicWeakened,
                wl: WlKind::Skew,
                seed,
                plan,
                windows: 4,
                measure_us: 800,
            });
        }
    }
    demo("xenic-weakened", jobs, pts)
}

/// Same drill for the weakened-predicate engine: with the Validate range
/// re-walk skipped, the scan crossfire workload must produce a phantom
/// (predicate-rw G2) witness that strict checking rejects.
fn phantom_demo(jobs: usize, quick: bool) -> bool {
    let seeds: Vec<u64> = if quick { (1..=3).collect() } else { (1..=6).collect() };
    let plans: &[u32] = if quick { &[0, 1] } else { &[0, 1, 2, 4] };
    let mut pts = Vec::new();
    for &plan in plans {
        for &seed in &seeds {
            pts.push(FuzzPoint {
                system: FuzzSystem::XenicWeakPredicates,
                wl: WlKind::Scan,
                seed,
                plan,
                windows: 4,
                measure_us: 800,
            });
        }
    }
    demo("xenic-weak-predicates", jobs, pts)
}

/// Same drill for the weakened-quorum Raft backend: committing before
/// the majority logged — with the post-commit retransmissions dropped —
/// must lose a commit under a lossy plan; the post-drain durability
/// audit catches the acknowledged write missing from its primary. Lossy
/// plans only (2 mod 3): on a reliable fabric every append still lands.
fn quorum_demo(jobs: usize, quick: bool) -> bool {
    let seeds: Vec<u64> = if quick { (1..=3).collect() } else { (1..=6).collect() };
    let plans: &[u32] = if quick { &[2, 5] } else { &[2, 5, 8, 11] };
    let mut pts = Vec::new();
    for &plan in plans {
        for &seed in &seeds {
            pts.push(FuzzPoint {
                system: FuzzSystem::XenicWeakQuorum,
                wl: WlKind::Mixed,
                seed,
                plan,
                windows: 4,
                measure_us: 800,
            });
        }
    }
    demo("xenic-weak-quorum", jobs, pts)
}

/// Same drill for the weakened-coherence CXL engine: with Validate's
/// pool re-check emptied and the coherence fence skipped, a stale pool
/// read commits under the skew crossfire and the checker must produce a
/// G2 witness. Jitter plans widen the stale window, same as
/// `weaken_demo`.
fn cxl_demo(jobs: usize, quick: bool) -> bool {
    let seeds: Vec<u64> = if quick { (1..=3).collect() } else { (1..=6).collect() };
    let plans: &[u32] = if quick { &[0, 1] } else { &[0, 1, 2, 4] };
    let mut pts = Vec::new();
    for &plan in plans {
        for &seed in &seeds {
            pts.push(FuzzPoint {
                system: FuzzSystem::XenicWeakCxl,
                wl: WlKind::Skew,
                seed,
                plan,
                windows: 4,
                measure_us: 800,
            });
        }
    }
    demo("xenic-weak-cxl", jobs, pts)
}

/// Runs a weakened-engine sweep, requiring at least one rejection; the
/// first rejected point is shrunk and replayed twice to prove the
/// witness reproduces bit for bit. Returns success.
fn demo(label: &str, jobs: usize, pts: Vec<FuzzPoint>) -> bool {
    println!("\n# checker self-test: {label} must fail verification");
    let outcomes = par_points(jobs, &pts, run_point);
    let Some((p, out)) = pts
        .iter()
        .zip(&outcomes)
        .find(|(_, out)| !out.passed())
    else {
        return false;
    };
    println!(
        "rejected  seed={} plan={} committed={}: {}",
        p.seed,
        p.plan,
        out.committed,
        summary(out)
    );
    let small = shrink(*p);
    let shrunk_out = run_point(&small);
    assert!(!shrunk_out.passed(), "shrunk point must still fail");
    let replayed = run_point(&small);
    assert_eq!(replayed.committed, shrunk_out.committed, "replay diverged");
    assert_eq!(replayed.report.txns, shrunk_out.report.txns, "replay diverged");
    assert_eq!(replayed.report.edges, shrunk_out.report.edges, "replay diverged");
    assert_eq!(
        replayed.lost_commits, shrunk_out.lost_commits,
        "replay diverged"
    );
    println!(
        "shrunk to seed={} plan={} windows={} measure_us={} (replayed bit for bit)",
        small.seed, small.plan, small.windows, small.measure_us
    );
    println!("{}", describe(&shrunk_out));
    println!("replay: {}", replay_cmd(&small));
    true
}

/// Replays one point from the command line; exit 0 iff it verifies.
fn replay() -> i32 {
    let p = FuzzPoint {
        system: args::required("--system"),
        wl: args::value("--wl").unwrap_or(WlKind::Mixed),
        seed: args::required("--seed"),
        plan: args::required("--plan"),
        windows: args::value("--windows").unwrap_or(3),
        measure_us: args::value("--measure-us").unwrap_or(800),
    };
    // Every fuzz system runs on a 6-node preset of the paper's testbed.
    let plan = plan_or_exit(expand_plan(p.plan), xenic_hw::HwParams::paper_testbed().nodes);
    println!("replaying {:?}", p);
    if plan.active() {
        println!("plan {}: {:?}", p.plan, plan);
    }
    let out = run_point(&p);
    println!(
        "committed={} aborted={}\n{}",
        out.committed,
        out.aborted,
        describe(&out)
    );
    i32::from(!out.passed())
}

fn summary(out: &PointOutcome) -> String {
    if out.lost_commits.is_empty() {
        format!("txns={} edges={}", out.report.txns, out.report.edges)
    } else {
        format!(
            "txns={} edges={} LOST COMMITS={}",
            out.report.txns,
            out.report.edges,
            out.lost_commits.len()
        )
    }
}

/// Full human-readable verdict: the DSG report, plus — when the
/// durability audit failed — each committed write that evaporated.
fn describe(out: &PointOutcome) -> String {
    let mut s = out.report.describe();
    if !out.lost_commits.is_empty() {
        s.push_str(&format!(
            "\ndurability audit: {} committed write(s) missing from their \
             primaries after drain",
            out.lost_commits.len()
        ));
        for lc in out.lost_commits.iter().take(5) {
            s.push_str(&format!("\n  {lc}"));
        }
        if out.lost_commits.len() > 5 {
            s.push_str(&format!("\n  ... and {} more", out.lost_commits.len() - 5));
        }
    }
    s
}
