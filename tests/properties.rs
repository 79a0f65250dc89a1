//! Property-based tests over the core data structures and simulator
//! invariants.
//!
//! These were originally written against an external property-testing
//! framework; they are now driven by the repo's own [`DetRng`] so the
//! test suite builds hermetically. Each property runs `CASES` randomized
//! trials with seeds derived from a fixed master seed — fully
//! deterministic, so a failure is reproducible by its printed case seed.

use std::collections::{BTreeMap, HashMap, HashSet};
use xenic::api::Workload;
use xenic::harness::{cluster_digest, drain, run_xenic, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::{FaultPlan, NetConfig};
use xenic_sim::{DetRng, EventQueue, Histogram, SimTime, Zipf};
use xenic_store::nic_index::{NicIndex, NicIndexConfig};
use xenic_store::robinhood::{InsertOutcome, RobinhoodConfig, RobinhoodTable};
use xenic_store::{BTree, ChainedTable, HopscotchTable, TxnId, Value, WritePayload};

/// Number of randomized trials per property.
const CASES: u64 = 64;

/// Runs `body` for `cases` seeds derived from the property name, so each
/// property owns an independent, label-stable sequence of cases.
fn for_cases(name: &str, cases: u64, mut body: impl FnMut(u64, &mut DetRng)) {
    let master = DetRng::new(0xbadc_0ffe).stream(name);
    for case in 0..cases {
        let mut rng = master.stream(&format!("case-{case}"));
        body(case, &mut rng);
    }
}

/// An operation against a keyed store.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u8),
    Update(u64, u8),
    Remove(u64),
    Get(u64),
}

fn gen_ops(rng: &mut DetRng, key_space: u64, max_len: u64) -> Vec<Op> {
    let len = rng.range_inclusive(1, max_len);
    (0..len)
        .map(|_| {
            let k = rng.below(key_space);
            match rng.below(4) {
                0 => Op::Insert(k, rng.below(256) as u8),
                1 => Op::Update(k, rng.below(256) as u8),
                2 => Op::Remove(k),
                _ => Op::Get(k),
            }
        })
        .collect()
}

fn gen_key_set(rng: &mut DetRng, key_space: u64, lo: usize, hi: usize) -> Vec<u64> {
    let want = rng.range_inclusive(lo as u64, hi as u64) as usize;
    let mut set = HashSet::new();
    while set.len() < want {
        set.insert(rng.below(key_space));
    }
    let mut keys: Vec<u64> = set.into_iter().collect();
    keys.sort_unstable();
    rng.shuffle(&mut keys);
    keys
}

/// The Robinhood table agrees with a HashMap model under arbitrary
/// operation sequences, including deletions (backward shift and
/// overflow promotion paths).
#[test]
fn robinhood_matches_model() {
    for_cases("robinhood_matches_model", CASES, |case, rng| {
        let ops = gen_ops(rng, 300, 400);
        let mut table = RobinhoodTable::new(RobinhoodConfig {
            capacity: 512,
            displacement_limit: Some(6),
            segment_slots: 4,
            inline_cap: 64,
            slot_value_bytes: 8,
        });
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    let out = table.insert(k, Value::filled(4, v));
                    assert_ne!(out, InsertOutcome::TableFull, "case {case}");
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    let t = table.remove(k);
                    let m = model.remove(&k).is_some();
                    assert_eq!(t, m, "case {case}: remove({k}) diverged");
                }
                Op::Get(k) => {
                    let t = table.get(k).map(|(v, _)| v.bytes()[0]);
                    let m = model.get(&k).copied();
                    assert_eq!(t, m, "case {case}: get({k}) diverged");
                }
            }
        }
        // Final sweep: every model key present with the right value.
        for (k, v) in &model {
            let got = table.get(*k).map(|(val, _)| val.bytes()[0]);
            assert_eq!(got, Some(*v), "case {case}");
        }
        assert_eq!(table.len() + table.overflow_len(), model.len(), "case {case}");
    });
}

/// DMA lookups with accurate hints find every present key in at most
/// one table read plus one overflow read.
#[test]
fn robinhood_dma_lookup_bounded() {
    for_cases("robinhood_dma_lookup_bounded", CASES, |case, rng| {
        let keys = gen_key_set(rng, 5_000, 50, 400);
        let mut table = RobinhoodTable::new(RobinhoodConfig {
            capacity: 1024,
            displacement_limit: Some(8),
            segment_slots: 4,
            inline_cap: 64,
            slot_value_bytes: 8,
        });
        for k in &keys {
            table.insert(*k, Value::filled(8, (*k % 251) as u8));
        }
        for k in &keys {
            let seg = table.segment_of_key(*k);
            let tr = table.dma_lookup(*k, table.seg_max_disp(seg), 1);
            assert!(tr.found.is_some(), "case {case}: key {k} not found");
            assert!(
                tr.roundtrips <= 2,
                "case {case}: key {k} took {} roundtrips",
                tr.roundtrips
            );
            let (v, _) = tr.found.unwrap();
            assert_eq!(v.bytes()[0], (*k % 251) as u8, "case {case}");
        }
    });
}

/// Hopscotch and chained tables agree with a HashMap model for
/// insert/get/update (their remote traces must find present keys).
#[test]
fn baseline_tables_match_model() {
    for_cases("baseline_tables_match_model", CASES, |case, rng| {
        let ops = gen_ops(rng, 200, 200);
        let mut hop = HopscotchTable::new(512, 8, 8);
        let mut chain = ChainedTable::new(64, 4, 8);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    assert!(hop.insert(k, Value::filled(4, v)), "case {case}");
                    chain.insert(k, Value::filled(4, v));
                    model.insert(k, v);
                }
                // These tables don't need deletion for the baselines.
                Op::Remove(_) => {}
                Op::Get(k) => {
                    let m = model.get(&k).copied();
                    assert_eq!(hop.get(k).map(|(v, _)| v.bytes()[0]), m, "case {case}");
                    assert_eq!(chain.get(k).map(|(v, _)| v.bytes()[0]), m, "case {case}");
                }
            }
        }
        for (k, v) in &model {
            assert_eq!(
                hop.remote_lookup(*k).found.map(|(val, _)| val.bytes()[0]),
                Some(*v),
                "case {case}"
            );
            assert_eq!(
                chain.remote_lookup(*k).found.map(|(val, _)| val.bytes()[0]),
                Some(*v),
                "case {case}"
            );
        }
    });
}

/// The B+tree agrees with std's BTreeMap, including range queries and
/// deletions.
#[test]
fn btree_matches_model() {
    for_cases("btree_matches_model", CASES, |case, rng| {
        let ops = gen_ops(rng, 500, 500);
        let lo = rng.below(500);
        let span = rng.below(200);
        let mut tree = BTree::with_order(8);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    tree.insert(k, v);
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    assert_eq!(tree.remove(k), model.remove(&k), "case {case}");
                }
                Op::Get(k) => {
                    assert_eq!(tree.get(k).copied(), model.get(&k).copied(), "case {case}");
                }
            }
        }
        let hi = lo + span;
        let got: Vec<(u64, u8)> = tree.range(lo, hi).into_iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u8)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "case {case}: range [{lo}, {hi}] diverged");
    });
}

/// NIC index locks are exclusive and lookups return the last installed
/// value; pinned entries survive arbitrary eviction pressure.
#[test]
fn nic_index_lock_exclusivity() {
    for_cases("nic_index_lock_exclusivity", CASES, |case, rng| {
        let n_keys = rng.range_inclusive(2, 39);
        let keys: Vec<u64> = (0..n_keys).map(|_| rng.below(64)).collect();
        let budget = rng.range_inclusive(1, 15) as usize;
        let mut ix = NicIndex::new(NicIndexConfig {
            segments: 8,
            max_cached_values: budget,
            slack_k: 1,
        });
        let a = TxnId::new(0, 1);
        let b = TxnId::new(1, 1);
        let mut locked_by_a = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let seg = (*k % 8) as usize;
            if i % 2 == 0 {
                if ix.try_lock(seg, *k, a) {
                    locked_by_a.push((seg, *k));
                }
            } else {
                ix.install(seg, *k, Value::filled(4, *k as u8), 1);
            }
        }
        // B can never steal A's locks.
        for (seg, k) in &locked_by_a {
            assert!(!ix.try_lock(*seg, *k, b), "case {case}: lock stolen for {k}");
        }
        // Unlocks release exactly A's locks.
        for (seg, k) in &locked_by_a {
            ix.unlock(*seg, *k, a);
            assert!(ix.try_lock(*seg, *k, b), "case {case}");
            ix.unlock(*seg, *k, b);
        }
        // Locked (or pinned) records are exempt from eviction, so the
        // budget may be exceeded by at most the number of unevictable
        // entries at install time.
        assert!(
            ix.cached_values() <= budget + locked_by_a.len(),
            "case {case}: cached {} vs budget {} + locked {}",
            ix.cached_values(),
            budget,
            locked_by_a.len()
        );
    });
}

/// WritePayload deltas compose: applying AddI64 deltas one at a time
/// equals adding their sum, regardless of order.
#[test]
fn delta_payloads_compose() {
    for_cases("delta_payloads_compose", CASES, |case, rng| {
        let n = rng.range_inclusive(1, 29);
        let deltas: Vec<i64> = (0..n).map(|_| rng.below(2000) as i64 - 1000).collect();
        let mut v = Value::from_bytes(&0i64.to_le_bytes());
        for d in &deltas {
            v = WritePayload::AddI64(*d).apply(&v);
        }
        let total: i64 = deltas.iter().sum();
        let got = i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
        assert_eq!(got, total, "case {case}");
    });
}

/// The event queue pops in nondecreasing time order with FIFO ties, for
/// arbitrary interleavings of pushes and pops.
#[test]
fn event_queue_total_order() {
    for_cases("event_queue_total_order", CASES, |case, rng| {
        let n = rng.range_inclusive(1, 199);
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(*t), (i, *t));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (seq, t))) = q.pop() {
            assert_eq!(at.as_ns(), t, "case {case}");
            if let Some((lt, lseq)) = last {
                assert!(
                    t > lt || (t == lt && seq > lseq),
                    "case {case}: order violated"
                );
            }
            last = Some((t, seq));
        }
    });
}

/// Histogram quantiles are monotone in q and bounded by min/max.
#[test]
fn histogram_quantiles_sane() {
    for_cases("histogram_quantiles_sane", CASES, |case, rng| {
        let n = rng.range_inclusive(1, 499);
        let samples: Vec<u64> = (0..n).map(|_| rng.range_inclusive(1, 9_999_999)).collect();
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let mn = *samples.iter().min().unwrap();
        let mx = *samples.iter().max().unwrap();
        let mut last = 0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            assert!(q >= last, "case {case}: quantiles must be monotone");
            assert!(
                q >= mn && q <= mx,
                "case {case}: quantile {q} outside [{mn}, {mx}]"
            );
            last = q;
        }
        assert_eq!(h.count(), samples.len() as u64, "case {case}");
    });
}

/// Zipf samples stay in range and the head outweighs the tail.
#[test]
fn zipf_in_range() {
    for_cases("zipf_in_range", CASES, |case, rng| {
        let n = rng.range_inclusive(10, 4_999) as usize;
        let alpha = rng.f64() * 1.2;
        let mut draw = rng.stream("draws");
        let z = Zipf::new(n, alpha);
        for _ in 0..200 {
            assert!(z.sample(&mut draw) < n, "case {case}");
        }
    });
}

/// After interleaved inserts and deletes, hint-guided DMA lookups still
/// find every surviving key (exercising overflow promotion and backward
/// shift against the hint machinery).
#[test]
fn robinhood_hints_survive_deletions() {
    for_cases("robinhood_hints_survive_deletions", 32, |case, rng| {
        let keys = gen_key_set(rng, 2_000, 100, 300);
        let delete_every = rng.range_inclusive(2, 4) as usize;
        let mut table = RobinhoodTable::new(RobinhoodConfig {
            capacity: 512,
            displacement_limit: Some(6),
            segment_slots: 4,
            inline_cap: 64,
            slot_value_bytes: 8,
        });
        for k in &keys {
            table.insert(*k, Value::filled(8, (*k % 251) as u8));
        }
        let mut surviving = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if i % delete_every == 0 {
                assert!(table.remove(*k), "case {case}");
            } else {
                surviving.push(*k);
            }
        }
        for k in &surviving {
            let seg = table.segment_of_key(*k);
            let tr = table.dma_lookup(*k, table.seg_max_disp(seg), 1);
            assert!(tr.found.is_some(), "case {case}: key {k} lost after deletions");
            assert!(tr.roundtrips <= 2, "case {case}");
        }
    });
}

/// A quick whole-stack run under the given net config, reduced to a
/// comparable fingerprint.
fn quick_run(net: NetConfig, seed: u64) -> (u64, u64, u64) {
    let opts = RunOptions {
        windows: 4,
        warmup: SimTime::from_us(500),
        measure: SimTime::from_ms(1),
        seed,
        lanes: 1,
        ..Default::default()
    };
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(xenic_workloads::Smallbank::new(
            xenic_workloads::SmallbankConfig {
                accounts_per_node: 10_000,
                ..xenic_workloads::SmallbankConfig::sim(6)
            },
        ))
    };
    let r = run_xenic(
        HwParams::paper_testbed(),
        net,
        XenicConfig::full(),
        &opts,
        mk,
    );
    (r.committed, r.aborted, r.p50_ns)
}

/// Fault-injected runs are deterministic: the same (seed, plan) pair
/// replays the same universe — identical commit and abort counts and an
/// identical latency distribution — for arbitrary fault rates.
#[test]
fn fault_injected_runs_are_deterministic() {
    for_cases("fault_injected_runs_are_deterministic", 3, |case, rng| {
        let seed = rng.below(1 << 20);
        let plan = FaultPlan::lossy(
            rng.f64() * 0.03,
            rng.f64() * 0.03,
            rng.below(4_000),
        );
        let net = || NetConfig::full().with_faults(plan.clone());
        let a = quick_run(net(), seed);
        let b = quick_run(net(), seed);
        assert_eq!(a, b, "case {case}: fault run diverged under replay");
        assert!(a.0 > 0, "case {case}: nothing committed");
    });
}

/// A fault plan with every knob at zero is inert: it must reproduce the
/// fault-free run *exactly*, proving the fault layer adds no code-path or
/// RNG perturbation when disabled.
#[test]
fn zero_rate_fault_plan_reproduces_fault_free_run() {
    for seed in [7u64, 42] {
        let plain = quick_run(NetConfig::full(), seed);
        let zeroed = quick_run(
            NetConfig::full().with_faults(FaultPlan::lossy(0.0, 0.0, 0)),
            seed,
        );
        assert_eq!(plain, zeroed, "seed {seed}: inert plan perturbed the run");
    }
}

/// The hot-path memory refactor (shared specs/values, inline small-sets,
/// slab txn contexts — DESIGN.md §13) must be *bit-invariant*: these
/// exact commit/abort counts, whole-cluster table digests, and
/// event-queue `processed` totals are pinned (re-pinned once, for the
/// single-schedule change of DESIGN.md §16; the two lossy pins once
/// more when AbortReqs became reliable — fewer aborts on orphaned
/// locks, table in DESIGN.md §9). Any divergence means an
/// observable reordering (map iteration, timer arming, send order)
/// leaked into the simulation.
#[test]
fn hot_path_pinned_digests() {
    use xenic::harness::run;

    struct Pin {
        name: &'static str,
        plan: Option<FaultPlan>,
        smallbank: bool,
        seed: u64,
        expect: (u64, u64, u64, u64), // (committed, aborted, digest, processed)
    }
    let pins = [
        Pin {
            name: "retwis_fault_free",
            plan: None,
            smallbank: false,
            seed: 7,
            expect: PIN_RETWIS_FAULT_FREE,
        },
        Pin {
            name: "retwis_lossy",
            plan: Some(FaultPlan::lossy(0.01, 0.01, 200)),
            smallbank: false,
            seed: 7,
            expect: PIN_RETWIS_LOSSY,
        },
        Pin {
            name: "smallbank_lossy",
            plan: Some(FaultPlan::lossy(0.02, 0.01, 500)),
            smallbank: true,
            seed: 9,
            expect: PIN_SMALLBANK_LOSSY,
        },
    ];
    for pin in pins {
        let opts = RunOptions {
            windows: 4,
            warmup: SimTime::from_us(200),
            measure: SimTime::from_us(500),
            seed: pin.seed,
            lanes: 1,
            ..Default::default()
        };
        let net = match &pin.plan {
            Some(p) => NetConfig::full().with_faults(p.clone()),
            None => NetConfig::full(),
        };
        let mk = |_: usize| -> Box<dyn Workload> {
            if pin.smallbank {
                Box::new(xenic_workloads::Smallbank::new(
                    xenic_workloads::SmallbankConfig {
                        accounts_per_node: 10_000,
                        ..xenic_workloads::SmallbankConfig::sim(6)
                    },
                ))
            } else {
                Box::new(xenic_workloads::Retwis::new(
                    xenic_workloads::RetwisConfig::sim(6),
                ))
            }
        };
        let (r, cluster) = run::<Xenic>(
            HwParams::paper_testbed(),
            net,
            XenicConfig::full(),
            &opts,
            mk,
        );
        let got = (
            r.committed,
            r.aborted,
            cluster_digest(&cluster),
            cluster.rt.queue.processed(),
        );
        assert_eq!(
            got, pin.expect,
            "{}: run fingerprint diverged from its pin",
            pin.name
        );
    }
}

/// Scan-heavy runs must be deterministic under sweep parallelism: each
/// point is an independent seeded cluster, so running the same YCSB-E
/// points serially and through `par_points` worker threads (the `--jobs
/// N` machinery every sweep binary uses) must produce byte-identical
/// commit counts and whole-cluster table digests. Range walks are the
/// newest hot path — any thread-sensitive state (shared caches, iteration
/// order) would show up here first.
#[test]
fn scan_cluster_digests_are_identical_serial_vs_parallel_jobs() {
    use xenic::harness::run;
    use xenic_bench::par_points;
    use xenic_workloads::{YcsbE, YcsbEConfig};

    let cfg = YcsbEConfig {
        keys_per_node: 2_000,
        nodes: 6,
        scan_pct: 90,
        max_scan_len: 40,
        double_scan_pct: 20,
        value_bytes: 32,
    };
    let run = |seed: &u64| {
        let opts = RunOptions {
            windows: 4,
            warmup: SimTime::from_us(200),
            measure: SimTime::from_ms(1),
            seed: *seed,
            lanes: 1,
            ..Default::default()
        };
        let (r, cluster) = run::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::full(),
            XenicConfig::full(),
            &opts,
            move |_| Box::new(YcsbE::new(cfg)) as Box<dyn Workload>,
        );
        (r.committed, r.aborted, cluster_digest(&cluster))
    };
    let seeds = [3u64, 4, 5, 6];
    let serial = par_points(1, &seeds, run);
    let parallel = par_points(4, &seeds, run);
    assert_eq!(serial, parallel, "--jobs must not perturb scan runs");
    for (seed, (committed, _, _)) in seeds.iter().zip(&serial) {
        assert!(*committed > 50, "seed {seed}: committed {committed}");
    }
}

/// Pinned fingerprints for [`hot_path_pinned_digests`]:
/// (committed, aborted, whole-cluster table digest, events processed).
const PIN_RETWIS_FAULT_FREE: (u64, u64, u64, u64) =
    (1612, 2, 544638648967074191, 227444);
const PIN_RETWIS_LOSSY: (u64, u64, u64, u64) =
    (969, 5, 13983805896531087677, 159087);
const PIN_SMALLBANK_LOSSY: (u64, u64, u64, u64) =
    (1104, 15, 1504873837859678040, 107998);

/// Deterministic increment workload for the replication-backend
/// equivalence tests: each node's first `budget` transactions increment
/// a key chosen by a fixed (rng-free) formula, everything after is
/// read-only padding. Because every increment commits exactly once and
/// `AddI64` commutes, the final table state — values *and* versions — is
/// a pure function of the issued set, independent of schedule, so runs
/// of different replication backends must land on identical digests.
struct BudgetWl {
    issued: u64,
    budget: u64,
    keys: u64,
}

impl Workload for BudgetWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> xenic::TxnSpec {
        use xenic::{make_key, ShipMode, TxnSpec, UpdateOp};
        let home = node as u32;
        let base = TxnSpec {
            exec_host_ns: 150,
            exec_nic_ns: 480,
            ship: ShipMode::Nic,
            ..Default::default()
        };
        if self.issued < self.budget {
            let i = self.issued;
            self.issued += 1;
            let shard = ((node as u64 + 1 + i) % 6) as u32;
            TxnSpec {
                reads: vec![make_key(home, i % self.keys)],
                updates: vec![(make_key(shard, (i * 7) % self.keys), UpdateOp::AddI64(1))],
                ..base
            }
        } else {
            TxnSpec {
                reads: vec![make_key(home, rng.below(self.keys))],
                ..base
            }
        }
    }

    fn value_bytes(&self) -> u32 {
        16
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (xenic::make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

/// Runs one replication backend over the budgeted workload, drains every
/// in-flight transaction and retransmission, and fingerprints the final
/// cluster: the whole-table digest plus the exact sum of all counters.
fn backend_run(
    backend: xenic::ReplBackend,
    seed: u64,
    plan: Option<FaultPlan>,
    budget: u64,
) -> (u64, i64, u64) {
    use xenic::harness::run;
    let opts = RunOptions {
        windows: 2,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_ms(2),
        seed,
        lanes: 1,
        ..Default::default()
    };
    let net = match &plan {
        Some(p) => NetConfig::full().with_faults(p.clone()),
        None => NetConfig::full(),
    };
    let (r, mut cluster) = run::<Xenic>(
        HwParams::paper_testbed(),
        net,
        XenicConfig::with_backend(backend),
        &opts,
        move |_| {
            Box::new(BudgetWl {
                issued: 0,
                budget,
                keys: 24,
            }) as Box<dyn Workload>
        },
    );
    drain(&mut cluster, SimTime::from_ms(200));
    let sum = xenic::audit::counter_sum(&cluster.states);
    (cluster_digest(&cluster), sum, r.committed)
}

/// Cross-backend equivalence (DESIGN.md §15): on fault-free runs of the
/// same (seed, workload), all three replication backends — DMA log
/// shipping, Raft-style leader commit, and Hermes-style invalidation —
/// must install *identical* whole-cluster state: same values, same
/// versions, same digest. Their schedules differ wildly (multi-hop vs
/// leader relay vs invalidation broadcast), so this pins down exactly
/// what the Replication trait owes the engine: the Log phase must not
/// change what a committed transaction installs, only how it survives.
#[test]
fn replication_backends_install_identical_state() {
    use xenic::ReplBackend;
    const BUDGET: u64 = 40;
    for seed in [11u64, 12] {
        let fingerprints: Vec<(u64, i64)> = ReplBackend::ALL
            .iter()
            .map(|&b| {
                let (digest, sum, _) = backend_run(b, seed, None, BUDGET);
                (digest, sum)
            })
            .collect();
        for (b, fp) in ReplBackend::ALL.iter().zip(&fingerprints) {
            assert_eq!(
                fp.1,
                (BUDGET * 6) as i64,
                "seed {seed} {b:?}: not every budgeted increment committed"
            );
            assert_eq!(
                *fp, fingerprints[0],
                "seed {seed} {b:?}: final cluster state diverged from {:?}",
                ReplBackend::ALL[0]
            );
        }
    }
}

/// Every replication backend's *lossy* run replays bit for bit: the same
/// (seed, plan, backend) triple must reproduce identical commit/abort
/// counts, whole-cluster digests, and event totals. Retransmission,
/// election, and invalidation schedules all draw from the deterministic
/// RNG tree, so any divergence means hidden nondeterminism in a backend.
#[test]
fn backend_lossy_runs_replay_bit_for_bit() {
    use xenic::harness::run;
    use xenic::ReplBackend;
    for &backend in ReplBackend::ALL.iter() {
        let run = || {
            let opts = RunOptions {
                windows: 4,
                warmup: SimTime::from_us(200),
                measure: SimTime::from_ms(1),
                seed: 21,
                lanes: 1,
                ..Default::default()
            };
            let plan = FaultPlan::lossy(0.02, 0.01, 1_000);
            let (r, cluster) = run::<Xenic>(
                HwParams::paper_testbed(),
                NetConfig::full().with_faults(plan),
                XenicConfig::with_backend(backend),
                &opts,
                move |_| {
                    Box::new(BudgetWl {
                        issued: 0,
                        budget: u64::MAX,
                        keys: 24,
                    }) as Box<dyn Workload>
                },
            );
            (
                r.committed,
                r.aborted,
                cluster_digest(&cluster),
                cluster.rt.queue.processed(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{backend:?}: lossy run diverged under replay");
        assert!(a.0 > 100, "{backend:?}: committed only {}", a.0);
    }
}

/// The serializability history recorder must be a pure observer:
/// attaching it changes no measured bit of a run. Commit and abort
/// counts, the full latency fingerprint, and an FNV digest over every
/// shard's final table (values and versions) are identical with
/// recording on and off — fault-free and under lossy fault plans.
#[test]
fn history_recorder_is_a_pure_observer() {
    use xenic::harness::run_xenic_cluster_with;
    use xenic_check::HistoryRecorder;

    for_cases("history_recorder_is_a_pure_observer", 4, |case, rng| {
        let seed = rng.below(1 << 20);
        let plan = if case % 2 == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::lossy(rng.f64() * 0.03, rng.f64() * 0.02, rng.below(2_000))
        };
        let opts = RunOptions {
            windows: 4,
            warmup: SimTime::from_us(500),
            measure: SimTime::from_ms(1),
            seed,
            lanes: 1,
            ..Default::default()
        };
        let mk = |_: usize| -> Box<dyn Workload> {
            Box::new(xenic_workloads::Smallbank::new(
                xenic_workloads::SmallbankConfig {
                    accounts_per_node: 10_000,
                    ..xenic_workloads::SmallbankConfig::sim(6)
                },
            ))
        };
        let run = |record: bool| {
            let recorder = HistoryRecorder::new();
            let hook = recorder.clone();
            let (r, cluster) = run_xenic_cluster_with(
                HwParams::paper_testbed(),
                NetConfig::full().with_faults(plan.clone()),
                XenicConfig::full(),
                &opts,
                mk,
                move |cluster| {
                    if record {
                        for st in &mut cluster.states {
                            st.set_recorder(hook.clone());
                        }
                    }
                },
            );
            let history = recorder.snapshot();
            (
                (r.committed, r.aborted, r.p50_ns, r.p99_ns, r.mean_ns.to_bits()),
                cluster_digest(&cluster),
                history,
            )
        };
        let (fp_off, digest_off, history_off) = run(false);
        let (fp_on, digest_on, history_on) = run(true);
        assert_eq!(fp_off, fp_on, "case {case}: recorder perturbed the metrics");
        assert_eq!(digest_off, digest_on, "case {case}: recorder perturbed table state");
        assert!(fp_on.0 > 0, "case {case}: nothing committed");
        assert!(history_off.is_empty(), "case {case}: detached recorder saw commits");
        // The recorder sees every commit from t=0, a superset of the
        // measurement-window count.
        assert!(
            history_on.committed_count() as u64 >= fp_on.0,
            "case {case}: recorder saw {} < measured {}",
            history_on.committed_count(),
            fp_on.0
        );
    });
}

/// The deterministic RNG's labeled streams are insensitive to parent
/// consumption, and NURand stays within its bounds for arbitrary
/// parameters.
#[test]
fn rng_streams_and_nurand() {
    for_cases("rng_streams_and_nurand", 32, |case, rng| {
        let seed = rng.u64();
        let a = rng.range_inclusive(1, 9_999);
        let span = rng.range_inclusive(1, 99_999);
        let root = DetRng::new(seed);
        let mut s1 = root.stream("x");
        let mut parent = DetRng::new(seed);
        parent.u64();
        parent.u64();
        let mut s2 = parent.stream("x");
        for _ in 0..8 {
            assert_eq!(s1.u64(), s2.u64(), "case {case}");
        }
        let mut r = DetRng::new(seed);
        for _ in 0..50 {
            let v = r.nurand(a, 10, 10 + span);
            assert!((10..=10 + span).contains(&v), "case {case}");
        }
    });
}

/// Parallel sweeps are a pure scheduling change: running the same sweep
/// points through [`xenic_bench::par_points`] with 8 workers must yield
/// output *bitwise identical* to the serial (`--jobs 1`) path — each
/// point is an independently seeded simulation, and the merge is by input
/// index, so formatted tables and CSV bytes cannot differ.
#[test]
fn parallel_sweep_output_is_bitwise_identical_to_serial() {
    use xenic_bench::{curves_csv, par_points, run_system, CurvePoint, System};

    let systems = [System::Xenic, System::DrtmH, System::Fasst];
    let windows = [4usize, 16];
    let points: Vec<(System, usize)> = systems
        .iter()
        .flat_map(|&s| windows.iter().map(move |&w| (s, w)))
        .collect();
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(xenic_workloads::Smallbank::new(
            xenic_workloads::SmallbankConfig {
                accounts_per_node: 10_000,
                ..xenic_workloads::SmallbankConfig::sim(6)
            },
        ))
    };
    let run = |&(sys, w): &(System, usize)| {
        let opts = RunOptions {
            windows: w,
            warmup: SimTime::from_us(500),
            measure: SimTime::from_ms(1),
            seed: 42,
            lanes: 1,
            ..Default::default()
        };
        let r = run_system(sys, HwParams::paper_testbed(), &opts, &mk);
        CurvePoint {
            windows: w,
            tput: r.tput_per_server,
            p50_us: r.p50_ns as f64 / 1000.0,
            p99_us: r.p99_ns as f64 / 1000.0,
            result: r,
        }
    };

    let render = |results: Vec<CurvePoint>| -> String {
        let curves: Vec<(System, Vec<CurvePoint>)> = systems
            .iter()
            .enumerate()
            .map(|(si, &s)| {
                (s, results[si * windows.len()..(si + 1) * windows.len()].to_vec())
            })
            .collect();
        curves_csv(&curves)
    };

    let serial = render(par_points(1, &points, run));
    let parallel = render(par_points(8, &points, run));
    assert_eq!(
        serial, parallel,
        "--jobs 8 sweep output diverged from --jobs 1"
    );
    assert!(serial.lines().count() == points.len() + 1);
}
