//! Deterministic schedule-exploration fuzzing: one config product under
//! one referee (DESIGN.md §12).
//!
//! A fuzz **cell** is a [`FuzzPoint`] — engine × replication backend ×
//! substrate × workload × fault-plan shape × scheduler lanes, plus the
//! seed and the load — printed as (and parsed from) one replay token such
//! as `xenic/raft/cxl/scan/plan2/seed1/lanes2`;
//! [`FuzzPoint::cells`] enumerates every cell [`FuzzPoint::validate`]
//! accepts. The seed drives the cluster's deterministic RNG tree and the
//! plan index expands (via its own [`DetRng`] lane) into a [`FaultPlan`],
//! so a cell replays bit for bit and any failure is a *replayable
//! artifact*, not a flake.
//!
//! [`run_point`] is the one referee for every engine: the recorded
//! history goes to the Adya DSG verifier, and the window must have
//! committed something (else "serializable" is vacuous). Every cell is
//! then drained, digested ([`cluster_digest`]) and audited for
//! **residue** (`xenic::audit::full_audit`, or
//! `xenic_baselines::residue`: no lock word, insert sentinel or live
//! coordinator context survives). Xenic cells are also audited for
//! **commit durability** — every committed write installed at its key's
//! primary once retransmission has quiesced, the invariant an
//! under-quorum acknowledgement breaks. The four [`Weakening`]s
//! exist to prove the referee *can* fail: [`reject`] requires each to be
//! caught, [`shrink`] greedily minimizes the witness, and
//! [`replay_cmd`] prints the command that reproduces it.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use xenic::api::{make_key, shard_of, ScanSpec, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::audit::full_audit;
use xenic::harness::{cluster_digest, drain, run_recorded, RunOptions, RunResult};
use xenic::{ReplBackend, Weakening, Xenic, XenicConfig};
use xenic_baselines::{Baseline, BaselineKind};
use xenic_check::{check_history, CheckOptions, History, Report};
use xenic_hw::{HwParams, SubstrateKind};
use xenic_net::{Cluster, FaultPlan, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::{Key, TxnId, Value, Version};
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig, YcsbE, YcsbEConfig};

/// The engine a cell drives. All of them share the same workloads,
/// recorder and verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzEngine {
    /// Xenic: the full design, or (`fig9`) with the Figure 9 ablation
    /// knobs off (separate remote ops, no shipping, no multi-hop) —
    /// different message schedules, same correctness obligation.
    Xenic {
        /// Run `XenicConfig::fig9_baseline()` instead of `full()`.
        fig9: bool,
    },
    /// One of the four RDMA baselines. Their lanes model a lossless
    /// fabric, so a plan exercises schedule diversity, not recovery.
    Baseline(BaselineKind),
}

impl FuzzEngine {
    /// All engines, in sweep order.
    pub const ALL: [FuzzEngine; 6] = [
        FuzzEngine::Xenic { fig9: false },
        FuzzEngine::Xenic { fig9: true },
        FuzzEngine::Baseline(BaselineKind::ALL[0]),
        FuzzEngine::Baseline(BaselineKind::ALL[1]),
        FuzzEngine::Baseline(BaselineKind::ALL[2]),
        FuzzEngine::Baseline(BaselineKind::ALL[3]),
    ];

    /// Replay-token field.
    pub fn token(self) -> &'static str {
        match self {
            FuzzEngine::Xenic { fig9: false } => "xenic",
            FuzzEngine::Xenic { fig9: true } => "xenic-fig9",
            FuzzEngine::Baseline(kind) => kind.token(),
        }
    }
}

/// Which workload a cell drives.
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
    /// partner scans.
    Scan,
    /// Smallbank at 5 000 accounts per node.
    Smallbank,
    /// Retwis at 5 000 keys per node.
    Retwis,
    /// YCSB-E (95 % range scans) at 5 000 keys per node.
    YcsbE,
}

impl WlKind {
    /// All workloads, in sweep order.
    pub const ALL: [WlKind; 6] = [
        WlKind::Mixed,
        WlKind::Skew,
        WlKind::Scan,
        WlKind::Smallbank,
        WlKind::Retwis,
        WlKind::YcsbE,
    ];

    /// Replay-token field.
    pub fn token(self) -> &'static str {
        match self {
            WlKind::Mixed => "mixed",
            WlKind::Skew => "skew",
            WlKind::Scan => "scan",
            WlKind::Smallbank => "smallbank",
            WlKind::Retwis => "retwis",
            WlKind::YcsbE => "ycsbe",
        }
    }

    /// Whether transactions carry range scans — two-sided systems only
    /// (Xenic and FaSST); the one-sided baselines have no scan protocol.
    pub fn has_scans(self) -> bool {
        matches!(self, WlKind::Scan | WlKind::YcsbE)
    }

    /// The three adversarial workloads written for the checker: tiny hot
    /// keyspaces, cheap enough that `serial_fuzz` sweeps their whole
    /// product.
    pub fn synthetic(self) -> bool {
        matches!(self, WlKind::Mixed | WlKind::Skew | WlKind::Scan)
    }

    fn build(self) -> Box<dyn Workload> {
        let nodes = NODES as u32;
        match self {
            WlKind::Mixed => Box::new(FuzzWl { keys: 32 }),
            WlKind::Skew => Box::new(SkewWl { keys: 1 }),
            WlKind::Scan => Box::new(ScanWl { span: 16 }),
            WlKind::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
                accounts_per_node: 5_000,
                ..SmallbankConfig::sim(nodes)
            })),
            WlKind::Retwis => Box::new(Retwis::new(RetwisConfig {
                keys_per_node: 5_000,
                ..RetwisConfig::sim(nodes)
            })),
            WlKind::YcsbE => Box::new(YcsbE::new(YcsbEConfig {
                keys_per_node: 5_000,
                ..YcsbEConfig::sim(nodes)
            })),
        }
    }
}

/// Every cell runs the paper's 6-node testbed (the synthetic workloads
/// pair nodes up by index).
const NODES: usize = 6;

/// The plan-shape dimension of [`FuzzPoint::cells`]: none, jitter,
/// loss + duplication, loss + crash/restart (see [`expand_plan`]; any
/// higher index is still a valid `plan` for a hand-built cell).
pub const PLANS: [u32; 4] = [0, 1, 2, 3];

/// The scheduler-lanes dimension of [`FuzzPoint::cells`].
pub const LANES: [usize; 3] = [1, 2, 4];

/// One dimension of the product: how many values it has and how to set a
/// cell's to the i-th.
type Dim = (usize, fn(&mut FuzzPoint, usize));

/// The product's dimensions, major to minor.
const DIMS: [Dim; 6] = [
    (FuzzEngine::ALL.len(), |p, i| p.engine = FuzzEngine::ALL[i]),
    (ReplBackend::ALL.len(), |p, i| {
        p.backend = ReplBackend::ALL[i]
    }),
    (SubstrateKind::ALL.len(), |p, i| {
        p.substrate = SubstrateKind::ALL[i]
    }),
    (WlKind::ALL.len(), |p, i| p.wl = WlKind::ALL[i]),
    (PLANS.len(), |p, i| p.plan = PLANS[i]),
    (LANES.len(), |p, i| p.lanes = LANES[i]),
];

/// Why a cell cannot run — what [`FuzzPoint::validate`] and token parsing
/// return instead of a panic somewhere inside the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The replay token does not follow the grammar.
    Malformed(String),
    /// A scan workload on a one-sided baseline, which has no scan RPC.
    ScanOnOneSided(BaselineKind),
    /// A Xenic-only dimension (named) off its default on a baseline.
    XenicOnly(&'static str),
    /// A baseline on a plan (index) that perturbs only the Ethernet fabric,
    /// which its one-sided and RPC lanes never cross: it replays plan 0.
    FabricOnlyOnBaseline(u32),
    /// `Weakening::CxlCoherence` guards a fence that exists only on CXL.
    CxlCoherenceOffCxl(SubstrateKind),
    /// `Weakening::Quorum` weakens the Raft backend's quorum only.
    QuorumOffRaft(ReplBackend),
    /// The expanded plan fails [`FaultPlan::check`].
    Plan(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Malformed(why) => write!(f, "malformed replay token: {why}"),
            CellError::Plan(why) => write!(f, "invalid cell: {why}"),
            other => write!(f, "invalid cell: {other:?}"),
        }
    }
}

/// One replayable cell of the config product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzPoint {
    /// Engine under test.
    pub engine: FuzzEngine,
    /// Replication backend (Xenic only; DESIGN.md §15).
    pub backend: ReplBackend,
    /// Hardware substrate (Xenic only; DESIGN.md §17).
    pub substrate: SubstrateKind,
    /// TEST ONLY: the seeded bug the referee must reject (Xenic only).
    pub weaken: Option<Weakening>,
    /// Workload shape.
    pub wl: WlKind,
    /// Perturbation-plan index (0 = no faults); see [`expand_plan`].
    pub plan: u32,
    /// Scheduler lanes; the outcome must not depend on it (DESIGN.md §16).
    pub lanes: usize,
    /// Cluster seed.
    pub seed: u64,
    /// Closed-loop windows per node.
    pub windows: usize,
    /// Measurement horizon, µs.
    pub measure_us: u64,
}

/// Full Xenic on the paper's testbed under the mixed workload, fault-free,
/// serial: the cell every other one is a few fields away from.
impl Default for FuzzPoint {
    fn default() -> Self {
        FuzzPoint {
            engine: FuzzEngine::Xenic { fig9: false },
            backend: ReplBackend::LogShipping,
            substrate: SubstrateKind::OnPathLiquidIO,
            weaken: None,
            wl: WlKind::Mixed,
            plan: 0,
            lanes: 1,
            seed: 1,
            windows: 3,
            measure_us: 800,
        }
    }
}

/// The replay token: the six fields every cell has, then whichever of
/// `lanesN`, `wN` (windows), `usN` (horizon) and `weak-W` differ from
/// [`FuzzPoint::default`].
impl fmt::Display for FuzzPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}/plan{}/seed{}",
            self.engine.token(),
            self.backend.token(),
            self.substrate.token(),
            self.wl.token(),
            self.plan,
            self.seed
        )?;
        let d = FuzzPoint::default();
        for (prefix, v, default) in [
            ("lanes", self.lanes as u64, d.lanes as u64),
            ("w", self.windows as u64, d.windows as u64),
            ("us", self.measure_us, d.measure_us),
        ] {
            if v != default {
                write!(f, "/{prefix}{v}")?;
            }
        }
        if let Some(w) = self.weaken {
            write!(f, "/weak-{}", w.token())?;
        }
        Ok(())
    }
}

/// Looks `s` up among a dimension's values by token.
fn by_token<T: Copy>(
    dim: &str,
    all: &[T],
    token: impl Fn(T) -> &'static str,
    s: &str,
) -> Result<T, CellError> {
    all.iter()
        .copied()
        .find(|v| token(*v) == s)
        .ok_or_else(|| CellError::Malformed(format!("unknown {dim} {s:?}")))
}

/// Parses the number after `prefix` in a token field such as `plan2`.
fn numbered<T: FromStr>(field: &str, prefix: &str) -> Result<T, CellError> {
    field
        .strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| CellError::Malformed(format!("expected {prefix}<number>, got {field:?}")))
}

/// Parses a replay token (see `Display`); the cell is validated, so an
/// `Ok` always runs.
impl FromStr for FuzzPoint {
    type Err = CellError;

    fn from_str(s: &str) -> Result<Self, CellError> {
        let fields: Vec<&str> = s.split('/').collect();
        let [engine, backend, substrate, wl, plan, seed, optional @ ..] = fields.as_slice() else {
            return Err(CellError::Malformed(format!(
                "expected engine/backend/substrate/workload/planN/seedN\
                 [/lanesN][/wN][/usN][/weak-W], got {s:?}"
            )));
        };
        let mut p = FuzzPoint {
            engine: by_token("engine", &FuzzEngine::ALL, FuzzEngine::token, engine)?,
            backend: by_token("backend", &ReplBackend::ALL, ReplBackend::token, backend)?,
            substrate: by_token(
                "substrate",
                &SubstrateKind::ALL,
                SubstrateKind::token,
                substrate,
            )?,
            wl: by_token("workload", &WlKind::ALL, WlKind::token, wl)?,
            plan: numbered(plan, "plan")?,
            seed: numbered(seed, "seed")?,
            ..FuzzPoint::default()
        };
        for field in optional {
            if let Some(w) = field.strip_prefix("weak-") {
                p.weaken = Some(by_token("weakening", &Weakening::ALL, Weakening::token, w)?);
            } else if field.starts_with("lanes") {
                p.lanes = numbered(field, "lanes")?;
            } else if field.starts_with("us") {
                p.measure_us = numbered(field, "us")?;
            } else {
                p.windows = numbered(field, "w")?;
            }
        }
        p.validate()?;
        Ok(p)
    }
}

impl FuzzPoint {
    /// Names the reason this cell cannot run, if there is one.
    pub fn validate(&self) -> Result<(), CellError> {
        if let FuzzEngine::Baseline(kind) = self.engine {
            if self.wl.has_scans() && !kind.scans() {
                return Err(CellError::ScanOnOneSided(kind));
            }
            let d = FuzzPoint::default();
            for (dim, set) in [
                ("backend", self.backend != d.backend),
                ("substrate", self.substrate != d.substrate),
                ("weakening", self.weaken.is_some()),
            ] {
                if set {
                    return Err(CellError::XenicOnly(dim));
                }
            }
            let plan = expand_plan(self.plan);
            if plan.active() && plan.crashes.is_empty() {
                return Err(CellError::FabricOnlyOnBaseline(self.plan));
            }
        }
        match self.weaken {
            Some(Weakening::CxlCoherence) if self.substrate != SubstrateKind::CxlShared => {
                return Err(CellError::CxlCoherenceOffCxl(self.substrate));
            }
            Some(Weakening::Quorum) if self.backend != ReplBackend::Raft => {
                return Err(CellError::QuorumOffRaft(self.backend));
            }
            _ => {}
        }
        expand_plan(self.plan).check(NODES).map_err(CellError::Plan)
    }

    /// The raw product of the dimensions, valid or not, in canonical
    /// order (engine-major, lanes-minor), each point with its coordinates.
    fn product() -> Vec<([usize; 6], FuzzPoint)> {
        let total: usize = DIMS.iter().map(|dim| dim.0).product();
        let point = |mut n: usize| {
            let (mut coords, mut p) = ([0; 6], FuzzPoint::default());
            for (d, (len, set)) in DIMS.iter().enumerate().rev() {
                (coords[d], n) = (n % len, n / len);
                set(&mut p, coords[d]);
            }
            (coords, p)
        };
        (0..total).map(point).collect()
    }

    /// Every sound cell: the product of the dimensions minus what
    /// [`validate`](Self::validate) rejects, in canonical order.
    pub fn cells() -> Vec<FuzzPoint> {
        let valid = |(_, p): ([usize; 6], FuzzPoint)| p.validate().is_ok().then_some(p);
        Self::product().into_iter().filter_map(valid).collect()
    }

    /// A small pairwise cover of [`cells`](Self::cells): every two values
    /// (of different dimensions) that co-occur in some valid cell co-occur
    /// in some sampled cell. What runs where the whole product is too
    /// slow — lanes above 1, the real workloads, debug-mode tests.
    ///
    /// The rule is the greedy cover: repeatedly take the cell that covers
    /// the most still-uncovered pairs, the canonically first on a tie.
    /// (No fixed stride over `cells()` covers every pair in fewer than
    /// 216 points; this takes under 40.)
    pub fn sample() -> Vec<FuzzPoint> {
        let mut cells = Self::product();
        cells.retain(|(_, p)| p.validate().is_ok());
        // One id below 2^12 per pair of a cell's dimension values.
        let pairs_of = |coords: &[usize; 6]| -> Vec<usize> {
            let dims = coords.iter().enumerate();
            dims.clone()
                .flat_map(|(i, a)| dims.clone().skip(i + 1).map(move |(j, b)| (i, a, j, b)))
                .map(|(i, a, j, b)| ((i * 8 + j) * 8 + a) * 8 + b)
                .collect()
        };
        let pairs: Vec<Vec<usize>> = cells.iter().map(|(coords, _)| pairs_of(coords)).collect();
        let mut uncovered = vec![false; 1 << 12];
        for &id in pairs.iter().flatten() {
            uncovered[id] = true;
        }
        let mut picked = Vec::new();
        loop {
            let gain = |ids: &Vec<usize>| ids.iter().filter(|&&id| uncovered[id]).count();
            let (best, gained) = pairs
                .iter()
                .enumerate()
                .map(|(i, ids)| (i, gain(ids)))
                .max_by_key(|&(i, gained)| (gained, Reverse(i)))
                .expect("the product has valid cells");
            if gained == 0 {
                break;
            }
            for &id in &pairs[best] {
                uncovered[id] = false;
            }
            picked.push(best);
        }
        picked.sort_unstable();
        picked.into_iter().map(|i| cells[i].1).collect()
    }
}

/// Expands a plan index into a concrete [`FaultPlan`].
///
/// Index 0 is the inert plan. Higher indices draw their knobs from a
/// dedicated RNG lane keyed only by the index (not the cluster seed), so
/// `planN` replays identically regardless of which seed found it.
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
/// commit. Skip it (`Weakening::Validation`) and the recorded history
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
/// serialization order. Skip it (`Weakening::PredicateLocks`) and the
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
            .map(|i| {
                (
                    make_key(shard, 2 * i),
                    Value::from_bytes(&0i64.to_le_bytes()),
                )
            })
            .collect()
    }
}

/// Counter workload whose committed effects are exactly auditable: every
/// transaction adds 1 to a single counter, so after a full drain the sum
/// of all counters must equal the number of committed transactions
/// (`xenic::audit::AuditReport`). Not a [`WlKind`]: the chaos, integration
/// and trace suites drive it directly.
pub struct Counters {
    /// Counters per shard.
    pub keys: u64,
    /// Share of increments that go to a uniformly drawn shard.
    pub remote_frac: f64,
}

impl Workload for Counters {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let shard = if rng.chance(self.remote_frac) {
            rng.below(6) as u32
        } else {
            node as u32
        };
        TxnSpec {
            reads: vec![make_key(node as u32, rng.below(self.keys))],
            updates: vec![(make_key(shard, rng.below(self.keys)), UpdateOp::AddI64(1))],
            exec_host_ns: 150,
            exec_nic_ns: 480,
            ship: ShipMode::Nic,
            ..Default::default()
        }
    }

    fn value_bytes(&self) -> u32 {
        16
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
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

/// The way a cell failed its referee, most damning first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The DSG checker rejected the recorded history.
    Anomaly,
    /// A committed write is missing from its primary after the drain.
    LostCommit,
    /// The drained cluster failed its residue audit
    /// (`xenic::audit::full_audit`, or `xenic_baselines::residue`).
    Residue,
    /// Nothing committed inside the window: "serializable", vacuously.
    Vacuous,
}

/// Result of running and verifying one cell.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The harness result over the measurement window.
    pub result: RunResult,
    /// Whole-cluster table digest after the drain.
    pub digest: u64,
    /// Simulation events processed.
    pub processed: u64,
    /// Every committed transaction's reads, writes and predicates.
    pub history: History,
    /// The verifier's report on that history.
    pub report: Report,
    /// Committed writes missing from their primaries after the drain
    /// (Xenic only; always empty for the lossless baselines).
    pub lost_commits: Vec<LostCommit>,
    /// What the residue audit found wrong with the drained cluster.
    pub residue: Option<String>,
    /// False on crash plans. A commit can outrun a crashed node's
    /// recorder, so the DSG check is relaxed there, and a crashed
    /// coordinator's locks stay held until recovery runs inside the
    /// simulation (ROADMAP item 4), so residue is reported, not failed.
    pub strict: bool,
}

impl PointOutcome {
    /// `(committed, aborted, digest, processed)` — what must not depend
    /// on lanes.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.result.committed,
            self.result.aborted,
            self.digest,
            self.processed,
        )
    }

    /// Why the cell failed, or `None` when it passed.
    pub fn failure(&self) -> Option<Failure> {
        if !self.report.is_serializable() {
            Some(Failure::Anomaly)
        } else if !self.lost_commits.is_empty() {
            Some(Failure::LostCommit)
        } else if self.strict && self.residue.is_some() {
            Some(Failure::Residue)
        } else if self.result.committed == 0 {
            Some(Failure::Vacuous)
        } else {
            None
        }
    }

    /// True when the history verified serializable, every committed
    /// write survived to its primary, the drained cluster audited clean,
    /// and the window committed something.
    pub fn passed(&self) -> bool {
        self.failure().is_none()
    }

    /// Full human-readable verdict: the DSG report, then each committed
    /// write that evaporated and whatever the audit found.
    pub fn describe(&self) -> String {
        let mut s = self.report.describe();
        if !self.lost_commits.is_empty() {
            s.push_str(&format!(
                "\ndurability audit: {} committed write(s) missing from their \
                 primaries after drain",
                self.lost_commits.len()
            ));
            for lc in self.lost_commits.iter().take(5) {
                s.push_str(&format!("\n  {lc}"));
            }
            if self.lost_commits.len() > 5 {
                s.push_str(&format!("\n  ... and {} more", self.lost_commits.len() - 5));
            }
        }
        if let Some(residue) = &self.residue {
            let weight = if self.strict {
                ""
            } else {
                " (crash plan: reported only)"
            };
            s.push_str(&format!("\nresidue audit{weight}: {residue}"));
        }
        if self.result.committed == 0 {
            s.push_str("\nvacuous: nothing committed inside the window");
        }
        s
    }
}

/// Sim time appended after the measurement horizon to let every
/// retransmission path quiesce before the audits. The event queue empties
/// long before this on every sound cell (draining stops new
/// transactions), so the bound costs nothing when nothing is wrong.
const DRAIN_NS: u64 = 200_000_000;

/// Runs one cell end to end: build the cluster, run the schedule, record
/// the history, drain, audit, verify.
///
/// # Panics
/// On a cell [`FuzzPoint::validate`] rejects.
pub fn run_point(p: &FuzzPoint) -> PointOutcome {
    if let Err(e) = p.validate() {
        panic!("run_point({p}): {e}");
    }
    let plan = expand_plan(p.plan);
    let strict = plan.crashes.is_empty();
    let opts = RunOptions {
        windows: p.windows,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_us(p.measure_us),
        seed: p.seed,
        lanes: p.lanes,
        ..Default::default()
    };
    let params = HwParams::with_substrate(p.substrate);
    let mk = |_: usize| p.wl.build();
    let horizon = opts.warmup.as_ns() + opts.measure.as_ns();
    let (result, digest, processed, history, lost_commits, residue) = match p.engine {
        FuzzEngine::Xenic { fig9 } => {
            let base = if fig9 {
                XenicConfig::fig9_baseline()
            } else {
                XenicConfig::full()
            };
            let cfg = XenicConfig {
                weaken: p.weaken,
                ..base.on_backend(p.backend)
            };
            let net = NetConfig::full().with_faults(plan);
            let (result, mut cluster, recorder) =
                run_recorded::<Xenic>(params, net, cfg, &opts, mk);
            drain(&mut cluster, SimTime::from_ns(horizon + DRAIN_NS));
            let history = recorder.snapshot();
            let lost = lost_commits(&cluster, &history);
            let part = cluster.states[0].part;
            let residue = full_audit(&cluster.states, &part).err();
            let processed = cluster.rt.queue.processed();
            (
                result,
                cluster_digest(&cluster),
                processed,
                history,
                lost,
                residue,
            )
        }
        FuzzEngine::Baseline(kind) => {
            let net = NetConfig::baseline().with_faults(plan);
            let (result, mut cluster, recorder) =
                run_recorded::<Baseline>(params, net, kind, &opts, mk);
            drain(&mut cluster, SimTime::from_ns(horizon + DRAIN_NS));
            (
                result,
                cluster_digest(&cluster),
                cluster.rt.queue.processed(),
                recorder.snapshot(),
                Vec::new(),
                xenic_baselines::residue(&cluster.states).err(),
            )
        }
    };
    let copts = if strict {
        CheckOptions::strict()
    } else {
        CheckOptions::relaxed()
    };
    PointOutcome {
        result,
        digest,
        processed,
        report: check_history(&history, &copts),
        history,
        lost_commits,
        residue,
        strict,
    }
}

/// The commit-durability audit: after the drain, every committed write in
/// the history must be installed (version-wise) at its key's primary.
/// Sound backends hold this under arbitrary loss — commit records are
/// retried until applied — so any miss is a real protocol violation, not
/// scheduling noise.
fn lost_commits(cluster: &Cluster<Xenic>, history: &History) -> Vec<LostCommit> {
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
    lost
}

/// Runs that differ only in lanes, yet do not share one fingerprint and
/// one history — as `(first run of the group, dissenter)`. The outcome
/// must not depend on lanes, so this is empty on a sound build.
pub fn lanes_diverging(runs: &[(FuzzPoint, PointOutcome)]) -> Vec<(FuzzPoint, FuzzPoint)> {
    let mut first: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, (p, got)) in runs.iter().enumerate() {
        let serial = FuzzPoint { lanes: 1, ..*p };
        let (q, want) = &runs[*first.entry(serial.to_string()).or_insert(i)];
        if (got.fingerprint(), &got.history) != (want.fingerprint(), &want.history) {
            out.push((*q, *p));
        }
    }
    out
}

/// Greedily shrinks a failing cell: repeatedly tries (in order) halving
/// the horizon, dropping window count, and zeroing the plan, keeping any
/// candidate that still fails the same way. Deterministic runs make every
/// candidate a definite answer, so the result is a local minimum.
pub fn shrink(mut p: FuzzPoint) -> FuzzPoint {
    let Some(failure) = run_point(&p).failure() else {
        return p;
    };
    let fails = |cand: &FuzzPoint| run_point(cand).failure() == Some(failure);
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

/// The exact command reproducing a cell.
pub fn replay_cmd(p: &FuzzPoint) -> String {
    format!("cargo run --release -p xenic-bench --bin serial_fuzz -- --replay {p}")
}

/// The checker self-tests: each weakening, the backend and substrate it
/// lives on, the workload that exposes it, and the plans swept (six
/// seeds each) until the referee rejects one. Jitter plans (1 mod 3)
/// perturb arrival order, widening the window in which a skipped check
/// lets a stale read commit; the weakened quorum needs loss (2 mod 3) —
/// on a reliable fabric every append still lands.
pub const SELF_TESTS: [(Weakening, ReplBackend, SubstrateKind, WlKind, [u32; 4]); 4] = {
    use {ReplBackend::*, SubstrateKind::*, Weakening::*, WlKind::*};
    [
        (Validation, LogShipping, OnPathLiquidIO, Skew, [0, 1, 2, 4]),
        (
            PredicateLocks,
            LogShipping,
            OnPathLiquidIO,
            Scan,
            [0, 1, 2, 4],
        ),
        (CxlCoherence, LogShipping, CxlShared, Skew, [0, 1, 2, 4]),
        (Quorum, Raft, OnPathLiquidIO, Mixed, [2, 5, 8, 11]),
    ]
};

/// A weakened engine caught in the act.
pub struct Witness {
    /// The first swept cell the referee rejected.
    pub found: FuzzPoint,
    /// That cell shrunk; still rejected, the same way, on every replay.
    pub shrunk: FuzzPoint,
    /// The shrunk cell's outcome.
    pub outcome: PointOutcome,
}

/// Runs one row of [`SELF_TESTS`]: sweeps the weakened engine until the
/// DSG checker or the durability audit rejects a cell (committing nothing
/// or leaving residue does not count), shrinks it, and replays the
/// shrunk cell twice to prove the witness reproduces bit for bit. `None`
/// means the referee let the weakened engine pass everywhere.
pub fn reject(weaken: Weakening) -> Option<Witness> {
    let (_, backend, substrate, wl, plans) = SELF_TESTS
        .into_iter()
        .find(|row| row.0 == weaken)
        .expect("every weakening has a row");
    let template = FuzzPoint {
        backend,
        substrate,
        weaken: Some(weaken),
        wl,
        windows: 4,
        ..FuzzPoint::default()
    };
    let rejected = |p: &FuzzPoint| {
        let failure = run_point(p).failure();
        matches!(failure, Some(Failure::Anomaly | Failure::LostCommit))
    };
    let found = plans
        .into_iter()
        .flat_map(|plan| {
            (1..=6).map(move |seed| FuzzPoint {
                plan,
                seed,
                ..template
            })
        })
        .find(rejected)?;
    // `shrink` keeps the failure, so the shrunk cell is rejected too.
    let shrunk = shrink(found);
    let (outcome, replayed) = (run_point(&shrunk), run_point(&shrunk));
    let evidence = |o: &PointOutcome| (o.fingerprint(), o.history.clone(), o.lost_commits.clone());
    assert!(
        evidence(&replayed) == evidence(&outcome),
        "{shrunk}: replay diverged"
    );
    Some(Witness {
        found,
        shrunk,
        outcome,
    })
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
    fn cells_are_the_product_minus_the_rejected() {
        let product = FuzzPoint::product();
        assert_eq!(
            product.len(),
            FuzzEngine::ALL.len()
                * ReplBackend::ALL.len()
                * SubstrateKind::ALL.len()
                * WlKind::ALL.len()
                * PLANS.len()
                * LANES.len()
        );
        let rejected = product
            .iter()
            .filter(|(_, p)| p.validate().is_err())
            .count();
        let cells = FuzzPoint::cells();
        assert_eq!(cells.len(), product.len() - rejected);
        // Xenic takes the whole product; a baseline only its own row of it.
        let xenic = cells
            .iter()
            .filter(|p| matches!(p.engine, FuzzEngine::Xenic { .. }))
            .count();
        assert_eq!(xenic, product.len() / FuzzEngine::ALL.len() * 2);
        let per_baseline = |kind| {
            cells
                .iter()
                .filter(|p| p.engine == FuzzEngine::Baseline(kind))
                .count()
        };
        // Fabric-only plans (jitter, loss) never reach a baseline's RDMA
        // and RPC lanes: a baseline runs plan 0 and the crash plan.
        let on_baseline = |plan| FuzzPoint {
            engine: FuzzEngine::Baseline(BaselineKind::DrtmH),
            plan,
            ..FuzzPoint::default()
        };
        let baseline_plans: Vec<u32> =
            PLANS.into_iter().filter(|&plan| on_baseline(plan).validate().is_ok()).collect();
        assert_eq!(baseline_plans, [0, 3]);
        assert_eq!(on_baseline(1).validate(), Err(CellError::FabricOnlyOnBaseline(1)));
        let grid = baseline_plans.len() * LANES.len();
        assert_eq!(per_baseline(BaselineKind::Fasst), WlKind::ALL.len() * grid);
        assert_eq!(
            per_baseline(BaselineKind::DrtmR),
            (WlKind::ALL.len() - 2) * grid
        );
    }

    #[test]
    fn every_token_round_trips() {
        for cell in FuzzPoint::cells() {
            assert_eq!(cell.to_string().parse(), Ok(cell), "{cell}");
        }
        let odd = FuzzPoint {
            backend: ReplBackend::Raft,
            weaken: Some(Weakening::Quorum),
            plan: 11,
            seed: 6,
            lanes: 4,
            windows: 2,
            measure_us: 100,
            ..FuzzPoint::default()
        };
        assert_eq!(
            odd.to_string(),
            "xenic/raft/onpath/mixed/plan11/seed6/lanes4/w2/us100/weak-quorum"
        );
        assert_eq!(odd.to_string().parse(), Ok(odd));
        assert_eq!(
            "xenic/logship/onpath/mixed/plan0/seed1".parse(),
            Ok(FuzzPoint::default())
        );
    }

    #[test]
    fn bad_tokens_are_typed_errors() {
        let parse = |s: &str| s.parse::<FuzzPoint>().unwrap_err();
        for malformed in [
            "",
            "xenic",
            "xenic/logship/onpath/mixed/plan0",
            "xenic-raft/logship/onpath/mixed/plan0/seed1",
            "xenic/logship/onpath/mixed/0/seed1",
            "xenic/logship/onpath/mixed/plan0/seedy",
            "xenic/logship/onpath/mixed/plan0/seed1/lanes",
            "xenic/logship/onpath/mixed/plan0/seed1/weak-knees",
            "xenic/logship/onpath/mixed/plan0/seed1/turbo",
            // An old seven-field token: its placement segment is no workload.
            "xenic/logship/onpath/nic/mixed/plan0/seed1",
        ] {
            assert!(
                matches!(parse(malformed), CellError::Malformed(_)),
                "{malformed:?}"
            );
        }
        assert_eq!(
            parse("drtmh/logship/onpath/scan/plan0/seed1"),
            CellError::ScanOnOneSided(BaselineKind::DrtmH)
        );
        assert_eq!(
            parse("drtmr/logship/onpath/ycsbe/plan0/seed1"),
            CellError::ScanOnOneSided(BaselineKind::DrtmR)
        );
        assert_eq!(
            parse("fasst/raft/onpath/mixed/plan0/seed1"),
            CellError::XenicOnly("backend")
        );
        assert_eq!(
            parse("fasst/logship/cxl/mixed/plan0/seed1"),
            CellError::XenicOnly("substrate")
        );
        assert_eq!(
            parse("fasst/logship/onpath/mixed/plan0/seed1/weak-validation"),
            CellError::XenicOnly("weakening")
        );
        assert_eq!(
            parse("xenic/logship/bluefield/skew/plan0/seed1/weak-cxl"),
            CellError::CxlCoherenceOffCxl(SubstrateKind::OffPathBluefield)
        );
        assert_eq!(
            parse("xenic/hermes/onpath/mixed/plan2/seed1/weak-quorum"),
            CellError::QuorumOffRaft(ReplBackend::Hermes)
        );
        assert!(parse("xenic/logship/onpath/mixed/plan0")
            .to_string()
            .contains("planN/seedN"));
    }

    #[test]
    fn sample_covers_every_pair_of_values_a_valid_cell_has() {
        // Recomputed from the tokens, independently of `value_pairs`.
        fn pairs(p: &FuzzPoint) -> Vec<(usize, String, usize, String)> {
            let lanes = format!("lanes{}", p.lanes);
            let plan = format!("plan{}", p.plan);
            let dims = [
                p.engine.token(),
                p.backend.token(),
                p.substrate.token(),
                p.wl.token(),
                &plan,
                &lanes,
            ];
            let mut out = Vec::new();
            for i in 0..dims.len() {
                for j in i + 1..dims.len() {
                    out.push((i, dims[i].to_string(), j, dims[j].to_string()));
                }
            }
            out
        }
        let all: std::collections::BTreeSet<_> =
            FuzzPoint::cells().iter().flat_map(pairs).collect();
        let sample = FuzzPoint::sample();
        let covered: std::collections::BTreeSet<_> = sample.iter().flat_map(pairs).collect();
        assert!(all.len() > 200, "only {} pairs", all.len());
        assert_eq!(covered, all);
        assert!(
            sample.len() <= 64,
            "the sample grew to {} cells",
            sample.len()
        );
        assert!(sample.iter().all(|p| p.validate().is_ok()));
        assert_eq!(sample, FuzzPoint::sample(), "the sample is a pure function");
    }

    /// The livelock the first exhaustive sweep found: 1.7 % loss eats a
    /// fire-and-forget AbortReq, the key stays locked by a dead
    /// transaction, and every later writer aborts on it — 13 270 aborts,
    /// zero commits, "serializable".
    #[test]
    fn a_lost_abort_no_longer_orphans_its_locks() {
        let p: FuzzPoint = "xenic/logship/onpath/skew/plan2/seed1".parse().unwrap();
        let out = run_point(&p);
        assert!(
            out.result.committed > 0,
            "still livelocked: {}",
            out.describe()
        );
        assert_eq!(out.residue, None);
        assert!(out.passed(), "{}", out.describe());
    }

    #[test]
    fn fuzz_points_are_deterministic() {
        let p = FuzzPoint {
            engine: FuzzEngine::Baseline(BaselineKind::DrtmH),
            seed: 5,
            plan: 3,
            windows: 2,
            measure_us: 400,
            ..FuzzPoint::default()
        };
        let (a, b) = (run_point(&p), run_point(&p));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.history == b.history);
    }
}
