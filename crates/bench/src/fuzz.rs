//! Deterministic schedule-exploration fuzzing for the serializability
//! checker (`xenic-check`).
//!
//! A fuzz **point** is a `(system, seed, plan, windows, measure_us)`
//! tuple. The seed drives the cluster's deterministic RNG tree, the plan
//! index expands (via its own [`DetRng`] lane) into a [`FaultPlan`] —
//! delivery jitter, message loss/duplication, or loss plus a
//! crash/restart — and the window count and measurement horizon set the
//! offered load and schedule length. Running a point replays bit for bit,
//! so any failure is a *replayable artifact*, not a flake.
//!
//! Each run records every committed transaction's read and write sets
//! (`xenic_check::HistoryRecorder`) and hands the history to the Adya DSG
//! verifier. Xenic points additionally drain in-flight work after the
//! measurement window and audit **commit durability**: every committed
//! write must be installed at its key's primary once retransmission has
//! quiesced — the invariant an under-quorum acknowledgement breaks. A
//! sound system must pass both checks at every point; the test-only
//! [`FuzzSystem::XenicWeakened`] variant (Validate's version re-check
//! skipped) exists to prove the checker *can* fail, and must be rejected
//! with a G2 witness cycle.
//!
//! On failure, [`shrink`] greedily minimizes the point — shorter horizon,
//! fewer windows, simpler plan — re-running candidates and keeping each
//! reduction that still fails, then [`replay_cmd`] prints the exact
//! command that reproduces the minimal failure.

use xenic::api::{make_key, shard_of, ScanSpec, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::harness::{run_recorded, RunOptions, RunResult};
use xenic::{ReplBackend, Xenic, XenicConfig};
use xenic_baselines::{Baseline, BaselineKind};
use xenic_check::{check_history, CheckOptions, History, Report};
use xenic_hw::HwParams;
use xenic_net::{FaultPlan, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::{Key, TxnId, Value, Version};

/// Systems the fuzzer can drive. All of them share the same workload,
/// recorder, and verifier; only the engine under test differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzSystem {
    /// Xenic, full design.
    Xenic,
    /// Xenic with the Figure 9 ablation knobs off (separate remote ops,
    /// no shipping, no multi-hop) — different message schedules, same
    /// correctness obligation.
    XenicFig9,
    /// Xenic running the Raft-style leader-commit replication backend
    /// (majority quorum, term-tagged appends; DESIGN.md §15).
    XenicRaft,
    /// Xenic running the Hermes-style invalidation replication backend
    /// (broadcast invalidations, all-ack quorum; DESIGN.md §15).
    XenicHermes,
    /// Xenic on the off-path BlueField substrate (DESIGN.md §17):
    /// shifted PCIe/DMA latency cliffs, cheaper wire RX — a genuinely
    /// different event schedule under the same correctness obligation.
    XenicBluefield,
    /// Xenic on the shared-CXL-pool substrate (DESIGN.md §17): pool
    /// load/store latencies, per-word coherence fences in Validate, and
    /// no DMA log shipping.
    XenicCxl,
    /// TEST ONLY: Xenic with `weaken_validation` set. Must be rejected.
    XenicWeakened,
    /// TEST ONLY: Xenic with `weaken_predicate_locks` set (Validate's
    /// range re-walks skipped while item checks stay intact). Must be
    /// rejected on scan workloads with a phantom (G2) witness.
    XenicWeakPredicates,
    /// TEST ONLY: the CXL substrate with `weaken_cxl_coherence` set —
    /// Validate skips both the per-word coherence fence and the
    /// lock/version re-check against the shared pool, trusting whatever
    /// Execute read. Must be rejected on skew crossfire with a G2
    /// witness cycle.
    XenicWeakCxl,
    /// TEST ONLY: the Raft-style backend with `weaken_quorum` set (the
    /// commit point ignores the majority and the post-commit
    /// retransmission bookkeeping is dropped). Must be rejected on lossy
    /// plans: the wire eats an unacked append or commit record, the
    /// acknowledged transaction evaporates, and the post-drain
    /// durability audit pins the loss to an exact key/version.
    XenicWeakQuorum,
    /// DrTM+H (hybrid one-sided, location cache).
    DrtmH,
    /// DrTM+H without the location cache.
    DrtmHNc,
    /// FaSST (all two-sided RPC).
    Fasst,
    /// DrTM+R (all one-sided, lock-all).
    DrtmR,
}

impl FuzzSystem {
    /// Every system expected to produce serializable histories.
    pub const SOUND: [FuzzSystem; 10] = [
        FuzzSystem::Xenic,
        FuzzSystem::XenicFig9,
        FuzzSystem::XenicRaft,
        FuzzSystem::XenicHermes,
        FuzzSystem::XenicBluefield,
        FuzzSystem::XenicCxl,
        FuzzSystem::DrtmH,
        FuzzSystem::DrtmHNc,
        FuzzSystem::Fasst,
        FuzzSystem::DrtmR,
    ];

    /// Command-line token (accepted by `serial_fuzz --system`).
    pub fn token(&self) -> &'static str {
        match self {
            FuzzSystem::Xenic => "xenic",
            FuzzSystem::XenicFig9 => "xenic-fig9",
            FuzzSystem::XenicRaft => "xenic-raft",
            FuzzSystem::XenicHermes => "xenic-hermes",
            FuzzSystem::XenicBluefield => "xenic-bluefield",
            FuzzSystem::XenicCxl => "xenic-cxl",
            FuzzSystem::XenicWeakened => "xenic-weakened",
            FuzzSystem::XenicWeakPredicates => "xenic-weak-predicates",
            FuzzSystem::XenicWeakCxl => "xenic-weak-cxl",
            FuzzSystem::XenicWeakQuorum => "xenic-weak-quorum",
            FuzzSystem::DrtmH => "drtmh",
            FuzzSystem::DrtmHNc => "drtmh-nc",
            FuzzSystem::Fasst => "fasst",
            FuzzSystem::DrtmR => "drtmr",
        }
    }
}

/// Parses a command-line token (see [`FuzzSystem::token`]).
impl std::str::FromStr for FuzzSystem {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        [
            FuzzSystem::Xenic,
            FuzzSystem::XenicFig9,
            FuzzSystem::XenicRaft,
            FuzzSystem::XenicHermes,
            FuzzSystem::XenicBluefield,
            FuzzSystem::XenicCxl,
            FuzzSystem::XenicWeakened,
            FuzzSystem::XenicWeakPredicates,
            FuzzSystem::XenicWeakCxl,
            FuzzSystem::XenicWeakQuorum,
            FuzzSystem::DrtmH,
            FuzzSystem::DrtmHNc,
            FuzzSystem::Fasst,
            FuzzSystem::DrtmR,
        ]
        .into_iter()
        .find(|sys| sys.token() == s)
        .ok_or(())
    }
}

/// Which workload a fuzz point drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WlKind {
    /// [`FuzzWl`]: a mix of read-only, read-modify-write, write-skew, and
    /// transfer shapes over a contended keyspace.
    Mixed,
    /// [`SkewWl`]: pure write-skew crossfire between paired shards — the
    /// shape that turns a skipped Validate into a G2 cycle fastest.
    Skew,
    /// [`ScanWl`]: predicate write-skew crossfire — paired nodes scan a
    /// hot range on one shard while inserting into the range their
    /// partner scans. Two-sided systems only (the Xenic variants and
    /// FaSST); the one-sided baselines have no scan protocol.
    Scan,
}

impl WlKind {
    /// Command-line token (accepted by `serial_fuzz --wl`).
    pub fn token(&self) -> &'static str {
        match self {
            WlKind::Mixed => "mixed",
            WlKind::Skew => "skew",
            WlKind::Scan => "scan",
        }
    }
}

/// Parses a command-line token (see [`WlKind::token`]).
impl std::str::FromStr for WlKind {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "mixed" => Ok(WlKind::Mixed),
            "skew" => Ok(WlKind::Skew),
            "scan" => Ok(WlKind::Scan),
            _ => Err(()),
        }
    }
}

/// One replayable fuzz point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzPoint {
    /// System under test.
    pub system: FuzzSystem,
    /// Workload shape.
    pub wl: WlKind,
    /// Cluster seed.
    pub seed: u64,
    /// Perturbation-plan index (0 = no faults); see [`expand_plan`].
    pub plan: u32,
    /// Closed-loop windows per node.
    pub windows: usize,
    /// Measurement horizon, µs.
    pub measure_us: u64,
}

/// Expands a plan index into a concrete [`FaultPlan`].
///
/// Index 0 is the inert plan. Higher indices draw their knobs from a
/// dedicated RNG lane keyed only by the index (not the cluster seed), so
/// `--plan N` replays identically regardless of which seed found it.
/// Indices cycle through three shapes: delivery jitter only, message
/// loss + duplication + jitter, and loss + a crash/restart.
pub fn expand_plan(plan: u32) -> FaultPlan {
    if plan == 0 {
        return FaultPlan::none();
    }
    let mut rng = DetRng::new(0x5e1a_f022 ^ u64::from(plan)).stream("serial-fuzz-plan");
    match (plan - 1) % 3 {
        0 => FaultPlan::lossy(0.0, 0.0, rng.range_inclusive(200, 3_000)),
        1 => FaultPlan::lossy(
            rng.f64() * 0.04,
            rng.f64() * 0.03,
            rng.range_inclusive(0, 1_500),
        ),
        _ => {
            let drop = rng.f64() * 0.02;
            let jitter = rng.range_inclusive(0, 1_000);
            let node = rng.below(6) as usize;
            let at = rng.range_inclusive(400_000, 1_200_000);
            let restart = at + rng.range_inclusive(100_000, 400_000);
            FaultPlan::lossy(drop, 0.0, jitter).with_crash(node, at, Some(restart))
        }
    }
}

/// The fuzz workload: small hot keyspace per shard, a mix of multi-shard
/// read-only, read-modify-write, write-skew-shaped, and transfer-shaped
/// transactions. Every transaction touches at most one key per shard and
/// never the same key twice, so recorded reads are always pre-state.
pub struct FuzzWl {
    /// Keys per shard (small = contended).
    pub keys: u64,
}

impl Workload for FuzzWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let home = node as u32;
        let peer = ((node as u64 + 1 + rng.below(5)) % 6) as u32;
        let k_local = make_key(home, rng.below(self.keys));
        let k_remote = make_key(peer, rng.below(self.keys));
        let roll = rng.below(10);
        let base = TxnSpec {
            exec_host_ns: 200,
            exec_nic_ns: 650,
            ..Default::default()
        };
        if roll < 3 {
            // Multi-shard read-only (runs Validate).
            TxnSpec {
                reads: vec![k_local, k_remote],
                ..base
            }
        } else if roll < 6 {
            // Read local, update remote (NIC-shipped).
            TxnSpec {
                reads: vec![k_local],
                updates: vec![(k_remote, UpdateOp::AddI64(1))],
                ship: ShipMode::Nic,
                ..base
            }
        } else if roll < 8 {
            // Write-skew shape: read remote, write local.
            TxnSpec {
                reads: vec![k_remote],
                updates: vec![(k_local, UpdateOp::AddI64(1))],
                ship: ShipMode::Host,
                ..base
            }
        } else {
            // Cross-shard transfer: two updates, no plain reads.
            TxnSpec {
                updates: vec![
                    (k_local, UpdateOp::AddI64(1)),
                    (k_remote, UpdateOp::AddI64(-1)),
                ],
                ship: ShipMode::Nic,
                ..base
            }
        }
    }

    fn value_bytes(&self) -> u32 {
        8
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

/// Pure write-skew crossfire with *both* the read and the write remote.
///
/// Nodes pair up (0↔1, 2↔3, 4↔5) and hammer a shared pair of third-party
/// shards: the even partner reads hot keys on shard X and writes shard Y,
/// the odd partner reads Y and writes X — the textbook write-skew
/// pattern, each transaction reading exactly what its partner writes.
///
/// Remoteness matters: Xenic acquires write locks during Execute and
/// (since the locked-read refusal) never serves a read of a locked key,
/// so a skew pair with a *local* write is decided the moment it starts —
/// the lock lands instantly and one side's read bounces. With two remote
/// shards, both the read and the lock requests cross the network, their
/// arrival orders at the two NICs can invert (queueing, jitter plans),
/// and only the Validate re-check stands between a stale read and a
/// commit. Skip it (`weaken_validation`) and the recorded history
/// collapses into rw-edge (G2) cycles; a correct engine aborts one side
/// every time.
pub struct SkewWl {
    /// Hot keys per shard (1 = maximal crossfire).
    pub keys: u64,
}

impl Workload for SkewWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let n = node as u32;
        // Partnered pairs (0,1), (2,3), (4,5) fight over two shards that
        // neither partner owns, in opposite read/write directions.
        let (read_shard, write_shard) = if n.is_multiple_of(2) {
            ((n + 2) % 6, (n + 3) % 6)
        } else {
            ((n + 2) % 6, (n + 1) % 6)
        };
        let a = rng.below(self.keys);
        TxnSpec {
            reads: vec![make_key(read_shard, a)],
            updates: vec![(make_key(write_shard, a), UpdateOp::AddI64(1))],
            ship: ShipMode::Host,
            exec_host_ns: 200,
            exec_nic_ns: 650,
            ..Default::default()
        }
    }

    fn value_bytes(&self) -> u32 {
        8
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

/// Predicate write-skew crossfire: the scan-shaped analogue of
/// [`SkewWl`].
///
/// Nodes pair up exactly as in [`SkewWl`] (0↔1, 2↔3, 4↔5) over a shared
/// pair of third-party shards, but the read side is a *range*: the even
/// partner scans the hot span on shard X and inserts into the span on
/// shard Y, the odd partner scans Y and inserts into X. Each insert
/// lands on an odd local index *inside* the span the partner scans
/// (preload fills the even indices), so every concurrent pair is a
/// potential phantom: if both range walks run before either insert's
/// lock lands, only the Validate re-walk can catch the vanished
/// serialization order. Skip it (`weaken_predicate_locks`) and the
/// history collapses into predicate-rw (G2) cycles.
///
/// Both shapes are two-shard transactions on purpose — a single-shard
/// scan commits on the Execute walk's atomicity alone and never reaches
/// the re-walk this workload exists to exercise.
pub struct ScanWl {
    /// Hot range width per shard (evens preloaded, odds inserted).
    pub span: u64,
}

impl Workload for ScanWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let n = node as u32;
        let (scan_shard, ins_shard) = if n.is_multiple_of(2) {
            ((n + 2) % 6, (n + 3) % 6)
        } else {
            ((n + 2) % 6, (n + 1) % 6)
        };
        let span = self.span;
        let whole = |shard: u32| ScanSpec::new(make_key(shard, 0), make_key(shard, span - 1));
        let base = TxnSpec {
            ship: ShipMode::Host,
            exec_host_ns: 200,
            exec_nic_ns: 650,
            ..Default::default()
        };
        let roll = rng.below(10);
        if roll < 7 {
            // Scan-skew: observe the partner's span, insert into ours.
            // Re-inserting an occupied odd slot is deliberate — it turns
            // the insert into a version bump on a row some walk observed.
            let slot = 2 * rng.below(span / 2) + 1;
            TxnSpec {
                scans: vec![whole(scan_shard)],
                inserts: vec![(
                    make_key(ins_shard, slot),
                    Value::from_bytes(&1i64.to_le_bytes()),
                )],
                ..base
            }
        } else if roll < 9 {
            // Pure observer: both spans in one transaction, so the
            // Validate re-walk must hold two ranges consistent at once.
            TxnSpec {
                scans: vec![whole(scan_shard), whole(ins_shard)],
                ..base
            }
        } else {
            // Version churn on a preloaded (even) row inside the span,
            // read against a key on the partner shard.
            let slot = 2 * rng.below(span / 2);
            TxnSpec {
                reads: vec![make_key(scan_shard, slot)],
                updates: vec![(make_key(ins_shard, slot), UpdateOp::AddI64(1))],
                ..base
            }
        }
    }

    fn value_bytes(&self) -> u32 {
        8
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.span / 2)
            .map(|i| (make_key(shard, 2 * i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

/// One committed write that never became durable at its key's primary,
/// even after a full drain let every retransmission path quiesce — the
/// smoking gun of an under-quorum commit acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LostCommit {
    /// The acknowledged transaction whose write evaporated.
    pub txn: TxnId,
    /// The key the transaction committed.
    pub key: Key,
    /// The version the commit installed (per the recorded history).
    pub expected: Version,
    /// The version actually found at the primary (`None`: key absent).
    pub found: Option<Version>,
}

impl std::fmt::Display for LostCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "txn {:?} committed key {} @ v{} but the primary holds {}",
            self.txn,
            self.key,
            self.expected,
            match self.found {
                Some(v) => format!("v{v}"),
                None => "no row".to_string(),
            }
        )
    }
}

/// Result of running and verifying one fuzz point.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// Committed transactions over the run.
    pub committed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// The verifier's report on the recorded history.
    pub report: Report,
    /// Committed writes missing from their primaries after the drain
    /// (Xenic systems only; always empty for the lossless baselines).
    pub lost_commits: Vec<LostCommit>,
}

impl PointOutcome {
    /// True when the history verified serializable **and** every
    /// committed write survived to its primary.
    pub fn passed(&self) -> bool {
        self.report.is_serializable() && self.lost_commits.is_empty()
    }
}

/// Runs one fuzz point end to end: build the cluster, run the schedule,
/// record the history, verify it.
pub fn run_point(p: &FuzzPoint) -> PointOutcome {
    run_point_on(p, 1)
}

/// [`run_point`] on `lanes` scheduler lanes. The outcome must not depend
/// on `lanes` (DESIGN.md §16), for any of the systems.
pub fn run_point_on(p: &FuzzPoint, lanes: usize) -> PointOutcome {
    let plan = expand_plan(p.plan);
    // Crash plans can legitimately leave reads of unrecorded versions
    // (a commit outruns the crashed recorder); everything else is strict.
    let copts = if plan.crashes.is_empty() {
        CheckOptions::strict()
    } else {
        CheckOptions::relaxed()
    };
    let opts = RunOptions {
        windows: p.windows,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_us(p.measure_us),
        seed: p.seed,
        lanes,
        ..Default::default()
    };
    // The system picks its substrate (DESIGN.md §17); every substrate
    // carries the same serializability and durability obligations.
    let params = match p.system {
        FuzzSystem::XenicBluefield => HwParams::off_path_bluefield(),
        FuzzSystem::XenicCxl | FuzzSystem::XenicWeakCxl => HwParams::cxl_shared(),
        _ => HwParams::paper_testbed(),
    };
    let wl = p.wl;
    let mk = move |_: usize| -> Box<dyn Workload> {
        match wl {
            WlKind::Mixed => Box::new(FuzzWl { keys: 32 }),
            WlKind::Skew => Box::new(SkewWl { keys: 1 }),
            WlKind::Scan => Box::new(ScanWl { span: 16 }),
        }
    };
    let (result, history, lost_commits) = match p.system {
        FuzzSystem::Xenic => xenic_point(params, plan, XenicConfig::full(), &opts, mk),
        FuzzSystem::XenicFig9 => xenic_point(params, plan, XenicConfig::fig9_baseline(), &opts, mk),
        FuzzSystem::XenicWeakened => {
            let cfg = XenicConfig {
                weaken_validation: true,
                ..XenicConfig::full()
            };
            xenic_point(params, plan, cfg, &opts, mk)
        }
        FuzzSystem::XenicWeakPredicates => {
            let cfg = XenicConfig {
                weaken_predicate_locks: true,
                ..XenicConfig::full()
            };
            xenic_point(params, plan, cfg, &opts, mk)
        }
        FuzzSystem::XenicRaft => xenic_point(
            params,
            plan,
            XenicConfig::with_backend(ReplBackend::Raft),
            &opts,
            mk,
        ),
        FuzzSystem::XenicHermes => xenic_point(
            params,
            plan,
            XenicConfig::with_backend(ReplBackend::Hermes),
            &opts,
            mk,
        ),
        FuzzSystem::XenicBluefield | FuzzSystem::XenicCxl => {
            xenic_point(params, plan, XenicConfig::full(), &opts, mk)
        }
        FuzzSystem::XenicWeakCxl => {
            let cfg = XenicConfig {
                weaken_cxl_coherence: true,
                ..XenicConfig::full()
            };
            xenic_point(params, plan, cfg, &opts, mk)
        }
        FuzzSystem::XenicWeakQuorum => {
            let cfg = XenicConfig {
                weaken_quorum: true,
                ..XenicConfig::with_backend(ReplBackend::Raft)
            };
            xenic_point(params, plan, cfg, &opts, mk)
        }
        FuzzSystem::DrtmH => baseline_point(BaselineKind::DrtmH, plan, &opts, mk),
        FuzzSystem::DrtmHNc => baseline_point(BaselineKind::DrtmHNc, plan, &opts, mk),
        FuzzSystem::Fasst => baseline_point(BaselineKind::Fasst, plan, &opts, mk),
        FuzzSystem::DrtmR => baseline_point(BaselineKind::DrtmR, plan, &opts, mk),
    };
    let report = check_history(&history, &copts);
    PointOutcome {
        committed: result.committed,
        aborted: result.aborted,
        report,
        lost_commits,
    }
}

/// Sim time appended after the measurement horizon to let every
/// retransmission path quiesce before the durability audit. The event
/// queue empties long before this on every sound point (draining stops
/// new transactions), so the bound costs nothing when nothing is wrong.
const DRAIN_NS: u64 = 200_000_000;

/// Runs one Xenic config with history recording, drains in-flight work,
/// and audits commit durability: after the drain, every committed write
/// in the history must be installed (version-wise) at its key's primary.
/// Sound backends hold this under arbitrary loss — commit records are
/// retried until applied — so any miss is a real protocol violation, not
/// scheduling noise.
fn xenic_point(
    params: HwParams,
    plan: FaultPlan,
    cfg: XenicConfig,
    opts: &RunOptions,
    mk: impl Fn(usize) -> Box<dyn Workload>,
) -> (RunResult, History, Vec<LostCommit>) {
    let (result, mut cluster, recorder) =
        run_recorded::<Xenic>(params, NetConfig::full().with_faults(plan), cfg, opts, mk);
    for st in &mut cluster.states {
        st.draining = true;
    }
    let horizon = opts.warmup.as_ns() + opts.measure.as_ns();
    cluster.run_until(SimTime::from_ns(horizon + DRAIN_NS));
    let history = recorder.snapshot();
    let part = cluster.states[0].part;
    let mut lost = Vec::new();
    for (txn, rec) in history.committed() {
        for (&key, &expected) in &rec.writes {
            let primary = part.primary(shard_of(key));
            let found = cluster.states[primary].current_version(key);
            if found.is_none_or(|v| v < expected) {
                lost.push(LostCommit {
                    txn,
                    key,
                    expected,
                    found,
                });
            }
        }
    }
    (result, history, lost)
}

fn baseline_point(
    kind: BaselineKind,
    plan: FaultPlan,
    opts: &RunOptions,
    mk: impl Fn(usize) -> Box<dyn Workload>,
) -> (RunResult, History, Vec<LostCommit>) {
    let (result, _, recorder) = run_recorded::<Baseline>(
        HwParams::paper_testbed(),
        NetConfig::baseline().with_faults(plan),
        kind,
        opts,
        mk,
    );
    (result, recorder.snapshot(), Vec::new())
}

/// Greedily shrinks a failing point: repeatedly tries (in order) halving
/// the horizon, dropping window count, and zeroing the plan, keeping any
/// candidate that still fails verification. Deterministic runs make every
/// candidate a definite answer, so the result is a local minimum.
pub fn shrink(mut p: FuzzPoint) -> FuzzPoint {
    let fails = |cand: &FuzzPoint| !run_point(cand).passed();
    loop {
        let mut candidates = Vec::new();
        if p.measure_us >= 250 {
            candidates.push(FuzzPoint {
                measure_us: p.measure_us / 2,
                ..p
            });
        }
        if p.windows > 1 {
            candidates.push(FuzzPoint {
                windows: p.windows - 1,
                ..p
            });
        }
        if p.plan != 0 {
            candidates.push(FuzzPoint { plan: 0, ..p });
        }
        match candidates.into_iter().find(fails) {
            Some(smaller) => p = smaller,
            None => return p,
        }
    }
}

/// The exact command reproducing a fuzz point.
pub fn replay_cmd(p: &FuzzPoint) -> String {
    format!(
        "cargo run --release -p xenic-bench --bin serial_fuzz -- --replay \
         --system {} --wl {} --seed {} --plan {} --windows {} --measure-us {}",
        p.system.token(),
        p.wl.token(),
        p.seed,
        p.plan,
        p.windows,
        p.measure_us
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_zero_is_inert_and_plans_are_reproducible() {
        assert!(!expand_plan(0).active());
        for i in 1..10 {
            let a = expand_plan(i);
            assert!(a.active(), "plan {i} must perturb something");
            assert_eq!(a, expand_plan(i), "plan {i} must be deterministic");
        }
        // The three shapes cycle: 1=jitter, 2=lossy, 3=crash, 4=jitter...
        assert!(expand_plan(3).crashes.len() == 1 && expand_plan(6).crashes.len() == 1);
        assert!(expand_plan(1).crashes.is_empty() && expand_plan(2).crashes.is_empty());
    }

    #[test]
    fn tokens_roundtrip() {
        for sys in FuzzSystem::SOUND {
            assert_eq!(sys.token().parse(), Ok(sys));
        }
        assert_eq!("xenic-weakened".parse(), Ok(FuzzSystem::XenicWeakened));
        assert_eq!("xenic-weak-predicates".parse(), Ok(FuzzSystem::XenicWeakPredicates));
        assert_eq!("xenic-weak-cxl".parse(), Ok(FuzzSystem::XenicWeakCxl));
        assert_eq!("xenic-bluefield".parse(), Ok(FuzzSystem::XenicBluefield));
        for wl in [WlKind::Mixed, WlKind::Skew, WlKind::Scan] {
            assert_eq!(wl.token().parse(), Ok(wl));
        }
        assert_eq!("nope".parse::<FuzzSystem>(), Err(()));
    }

    #[test]
    fn clean_xenic_point_verifies() {
        let p = FuzzPoint {
            system: FuzzSystem::Xenic,
            wl: WlKind::Mixed,
            seed: 11,
            plan: 0,
            windows: 3,
            measure_us: 600,
        };
        let out = run_point(&p);
        assert!(out.committed > 50, "committed {}", out.committed);
        assert!(out.passed(), "{}", out.report.describe());
    }

    #[test]
    fn clean_backend_points_verify() {
        // The alternative replication backends carry the same
        // serializability obligation as the native one.
        for system in [FuzzSystem::XenicRaft, FuzzSystem::XenicHermes] {
            let p = FuzzPoint {
                system,
                wl: WlKind::Mixed,
                seed: 11,
                plan: 0,
                windows: 3,
                measure_us: 600,
            };
            let out = run_point(&p);
            assert!(out.committed > 50, "{system:?} committed {}", out.committed);
            assert!(out.passed(), "{system:?}: {}", out.report.describe());
        }
    }

    #[test]
    fn clean_scan_point_verifies() {
        // Sound Xenic survives the predicate crossfire that breaks the
        // weakened-predicate engine (the control arm of the self-test).
        let p = FuzzPoint {
            system: FuzzSystem::Xenic,
            wl: WlKind::Scan,
            seed: 11,
            plan: 0,
            windows: 3,
            measure_us: 600,
        };
        let out = run_point(&p);
        assert!(out.committed > 30, "committed {}", out.committed);
        assert!(out.passed(), "{}", out.report.describe());
    }

    #[test]
    fn clean_substrate_points_verify() {
        // Both alternative substrates carry the full serializability +
        // durability obligation on their reshaped schedules.
        for system in [FuzzSystem::XenicBluefield, FuzzSystem::XenicCxl] {
            let p = FuzzPoint {
                system,
                wl: WlKind::Mixed,
                seed: 11,
                plan: 0,
                windows: 3,
                measure_us: 600,
            };
            let out = run_point(&p);
            assert!(out.committed > 50, "{system:?} committed {}", out.committed);
            assert!(out.passed(), "{system:?}: {}", out.report.describe());
        }
    }

    #[test]
    fn fuzz_points_are_deterministic() {
        let p = FuzzPoint {
            system: FuzzSystem::DrtmH,
            wl: WlKind::Mixed,
            seed: 5,
            plan: 1,
            windows: 2,
            measure_us: 400,
        };
        let a = run_point(&p);
        let b = run_point(&p);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.report.txns, b.report.txns);
        assert_eq!(a.report.edges, b.report.edges);
    }
}
