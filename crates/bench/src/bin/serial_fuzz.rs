//! Schedule-exploration serializability fuzzer: the whole config product
//! under one referee (`xenic_bench::fuzz`, DESIGN.md §12).
//!
//! Runs every serial cell of the three synthetic workloads — engine ×
//! backend × substrate × plan shape, exhaustively — plus the pairwise
//! sample of the full product (which carries lanes {2, 4} and the three
//! real workloads) with each sampled cell's serial sibling. Every cell
//! must commit something, leave a DSG-serializable history, lose no
//! committed write and (off crash plans) audit clean after its drain;
//! cells that differ only in lanes must agree on fingerprint and history.
//!
//! The sweep ends with the four checker self-tests
//! (`xenic_bench::fuzz::SELF_TESTS`): each `Weakening` **must** be
//! rejected, and its witness shrunk, replayed bit for bit and printed
//! with its replay command. If the referee lets any weakened engine pass,
//! this binary exits non-zero — a green run certifies both the engines
//! and the checker's teeth.
//!
//! ```text
//! serial_fuzz [--jobs N]        # sweep + self-tests; prints `product fingerprint <hex>`
//! serial_fuzz --replay TOKEN    # one cell, e.g. xenic/raft/cxl/scan/plan2/seed1/lanes2
//! ```

use xenic::Weakening;
use xenic_bench::fuzz::{
    expand_plan, lanes_diverging, reject, replay_cmd, run_point, shrink, FuzzPoint, PointOutcome,
};
use xenic_bench::{args, par_points};

fn main() {
    if let Some(token) = args::value::<String>("--replay") {
        std::process::exit(replay(&token));
    }
    let jobs = args::jobs();

    let sample = FuzzPoint::sample();
    let serial_of = |p: &FuzzPoint| FuzzPoint { lanes: 1, ..*p };
    let mut points = FuzzPoint::cells();
    points.retain(|c| {
        (c.lanes == 1 && c.wl.synthetic()) || sample.iter().any(|s| s == c || serial_of(s) == *c)
    });
    println!(
        "# serial_fuzz: {} cells ({} sampled beyond the serial synthetic product; {} jobs)",
        points.len(),
        sample.len(),
        jobs
    );
    let runs: Vec<(FuzzPoint, PointOutcome)> = points
        .iter()
        .copied()
        .zip(par_points(jobs, &points, run_point))
        .collect();
    let mut failed = Vec::new();
    for (p, out) in &runs {
        let status = if out.passed() { "ok" } else { "FAIL" };
        let verdict = out.describe().replace('\n', " | ");
        println!(
            "{status:>4}  {p:<48} committed={:<5} {verdict}",
            out.result.committed
        );
        if !out.passed() {
            failed.push(*p);
        }
    }
    // Always printed, pass or fail: two builds that print the same value
    // here behaved identically on every cell, not just at the pins.
    println!(
        "product fingerprint {:016x} ({} cells)",
        product_fingerprint(&runs),
        runs.len()
    );

    // Lanes are a scheduling detail: a group of cells equal in
    // everything else shares one outcome.
    let by_lanes = lanes_diverging(&runs);
    for (a, b) in &by_lanes {
        println!("FAIL  lanes changed the outcome: {a} vs {b}");
    }

    for p in &failed {
        let small = shrink(*p);
        println!("\nFAILURE {p} shrunk to {small}");
        println!("{}", run_point(&small).describe());
        println!("replay: {}", replay_cmd(&small));
    }

    // Checker self-tests: every weakened engine must be rejected.
    let witnesses = par_points(jobs, &Weakening::ALL, |w| reject(*w));
    let mut missed = Vec::new();
    for (weaken, witness) in Weakening::ALL.iter().zip(&witnesses) {
        println!(
            "\n# checker self-test: weak-{} must fail verification",
            weaken.token()
        );
        let Some(w) = witness else {
            missed.push(weaken.token());
            continue;
        };
        println!("rejected  {}", w.found);
        println!("shrunk to {} (replayed bit for bit)", w.shrunk);
        println!("{}", w.outcome.describe());
        println!("replay: {}", replay_cmd(&w.shrunk));
    }

    if !failed.is_empty() || !by_lanes.is_empty() {
        eprintln!(
            "\n{} cell(s) failed verification, {} lane invariance violation(s)",
            failed.len(),
            by_lanes.len()
        );
        std::process::exit(1);
    }
    if !missed.is_empty() {
        eprintln!(
            "\nchecker self-test failed: not rejected: weak-{}",
            missed.join(", weak-")
        );
        std::process::exit(1);
    }
    println!(
        "\nall {} cells committed, serializable, durable and audit-clean; lanes changed \
         nothing; all four checker self-tests passed",
        runs.len()
    );
}

/// FNV-1a fold of every cell's `(token, committed, aborted, digest,
/// processed)` in sweep (`cells()`) order: one number that moves iff any
/// cell's outcome does, so a behaviour-preserving refactor is refereed
/// over the whole product by comparing it against the parent's.
fn product_fingerprint(runs: &[(FuzzPoint, PointOutcome)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (p, out) in runs {
        fold(p.to_string().as_bytes());
        let (committed, aborted, digest, processed) = out.fingerprint();
        for word in [committed, aborted, digest, processed] {
            fold(&word.to_le_bytes());
        }
    }
    h
}

/// Replays one cell from its token; exit 0 iff it verifies, 2 (naming
/// the reason) if the token is malformed or names an invalid cell.
fn replay(token: &str) -> i32 {
    let p: FuzzPoint = match token.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--replay: {e}");
            return 2;
        }
    };
    println!("replaying {p}");
    let plan = expand_plan(p.plan);
    if plan.active() {
        println!("plan {}: {:?}", p.plan, plan);
    }
    let out = run_point(&p);
    println!(
        "committed={} aborted={}\n{}",
        out.result.committed,
        out.result.aborted,
        out.describe()
    );
    i32::from(!out.passed())
}
