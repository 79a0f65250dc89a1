//! End-to-end serializability checks through the fuzz harness: the sound
//! engines must verify, and — the checker's own acceptance test — a
//! deliberately weakened Xenic (`Weakening::Validation` skips Validate's
//! version re-check, `Weakening::PredicateLocks` its range re-walks) must
//! be **rejected** with a G2 witness cycle that survives shrinking.

use xenic::Weakening;
use xenic_baselines::BaselineKind;
use xenic_bench::fuzz::{reject, replay_cmd, run_point, FuzzEngine, FuzzPoint, WlKind};
use xenic_check::{AnomalyClass, Verdict};

/// The fault-free serial default-config cells of `engine` under `wl`, at
/// `seeds` and `windows` windows.
fn crossfire(engine: FuzzEngine, wl: WlKind, seeds: u64, windows: usize) -> Vec<FuzzPoint> {
    let cell = FuzzPoint {
        engine,
        wl,
        ..FuzzPoint::default()
    };
    assert!(
        FuzzPoint::cells().contains(&cell),
        "{cell} is not a cell of the product"
    );
    (1..=seeds)
        .map(|seed| FuzzPoint {
            seed,
            windows,
            ..cell
        })
        .collect()
}

/// Rejects `weaken` and checks the witness: a G2 cycle, still failing
/// after the shrink, named exactly by its replay command.
fn assert_rejected_with_g2(weaken: Weakening) {
    let w = reject(weaken).expect("the weakened engine must be caught on some cell");
    match &w.outcome.report.verdict {
        Verdict::Cycle { class, witness } => {
            assert_eq!(*class, AnomalyClass::G2, "{}: must class as G2", w.shrunk);
            assert!(witness.len() >= 2, "a cycle needs at least two edges");
        }
        other => panic!("{}: expected a witness cycle, got {other:?}", w.shrunk),
    }
    let described = w.outcome.describe();
    assert!(
        described.contains("G2"),
        "describe() must name the class: {described}"
    );
    assert!(w.shrunk.measure_us <= w.found.measure_us && w.shrunk.windows <= w.found.windows);
    let cmd = replay_cmd(&w.shrunk);
    assert!(cmd.contains("serial_fuzz -- --replay xenic/"), "{cmd}");
    assert!(cmd.ends_with(&format!("/weak-{}", weaken.token())), "{cmd}");
    assert_eq!(
        cmd.rsplit(' ').next().unwrap().parse(),
        Ok(w.shrunk),
        "{cmd}"
    );
}

#[test]
fn sound_xenic_survives_the_write_skew_crossfire() {
    // The control arm: the same workload that breaks the weakened engine
    // below must pass with Validate intact.
    for p in crossfire(FuzzEngine::Xenic { fig9: false }, WlKind::Skew, 3, 4) {
        let out = run_point(&p);
        assert!(
            out.result.committed > 50,
            "{p}: committed {}",
            out.result.committed
        );
        assert!(
            out.passed(),
            "{p}: sound Xenic rejected:\n{}",
            out.describe()
        );
    }
}

#[test]
fn weakened_validation_is_rejected_with_a_g2_cycle() {
    // Skipping the Validate version re-check lets two cross-shard
    // transactions each read the key the other writes before either lock
    // request lands — classic write skew.
    assert_rejected_with_g2(Weakening::Validation);
}

#[test]
fn sound_scan_engines_survive_the_phantom_crossfire() {
    // The control arm for the predicate self-test: the scan workload
    // pairs range observers with inserts into the observed ranges, and
    // both engines that speak the scan protocol (Xenic's NIC walk +
    // Validate re-walk, FaSST's RPC walk + re-walk) must keep every
    // history serializable under it. Three windows, not four: FaSST's
    // retry backoff collapses under maximal crossfire concurrency, and a
    // near-empty history would verify vacuously.
    for engine in [
        FuzzEngine::Xenic { fig9: false },
        FuzzEngine::Baseline(BaselineKind::Fasst),
    ] {
        for p in crossfire(engine, WlKind::Scan, 2, 3) {
            let out = run_point(&p);
            assert!(
                out.result.committed > 20,
                "{p}: committed {}",
                out.result.committed
            );
            assert!(
                out.passed(),
                "{p}: sound engine rejected:\n{}",
                out.describe()
            );
        }
    }
}

#[test]
fn weakened_predicate_locks_are_rejected_with_a_phantom_g2_cycle() {
    // Skipping only the Validate range re-walks (item version checks
    // stay intact) admits phantoms: both halves of a scan/insert pair
    // walk their ranges before either insert's lock lands, then commit
    // unchecked. The recorded predicates must turn that into a G2
    // (anti-dependency) witness cycle.
    assert_rejected_with_g2(Weakening::PredicateLocks);
}
