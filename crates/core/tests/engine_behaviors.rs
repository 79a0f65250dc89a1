//! Behavioural tests for the Xenic engine: abort/retry paths, validation
//! conflicts, configuration edges (no cache, no replication, baseline op
//! set), inserts, and the local fast path.

use xenic::api::{make_key, Partitioning, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::engine::{Xenic, XenicNode};
use xenic::msg::XMsg;
use xenic::XenicConfig;
use xenic_hw::HwParams;
use xenic_net::{Cluster, Exec, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::Value;

/// A scripted workload: every coordinator repeatedly runs the same spec.
struct Fixed {
    spec: TxnSpec,
}

impl Workload for Fixed {
    fn next_txn(&mut self, _node: usize, _rng: &mut DetRng) -> TxnSpec {
        self.spec.clone()
    }
    fn value_bytes(&self) -> u32 {
        16
    }
    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..100)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

fn cluster_of(
    cfg: XenicConfig,
    net: NetConfig,
    windows: usize,
    mk: impl Fn(usize) -> TxnSpec,
) -> Cluster<Xenic> {
    let part = Partitioning::new(6, cfg.replication);
    let mut cluster: Cluster<Xenic> =
        Cluster::new(HwParams::paper_testbed(), net, 1, |node| {
            XenicNode::new(node, cfg, part, Box::new(Fixed { spec: mk(node) }), windows)
        });
    for node in 0..6 {
        for slot in 0..windows {
            cluster.seed(
                SimTime::from_ns(slot as u64 * 97),
                node,
                Exec::Host,
                XMsg::StartTxn { slot: slot as u32 },
            );
        }
    }
    for st in &mut cluster.states {
        st.stats.start_measuring(SimTime::ZERO);
    }
    cluster
}

fn drain(cluster: &mut Cluster<Xenic>) {
    xenic::harness::drain(cluster, SimTime::from_ms(100));
}

fn committed(cluster: &Cluster<Xenic>) -> u64 {
    cluster
        .states
        .iter()
        .map(|s| s.stats.committed_all.get())
        .sum()
}

fn aborted(cluster: &Cluster<Xenic>) -> u64 {
    cluster.states.iter().map(|s| s.stats.aborted.get()).sum()
}

#[test]
fn single_hot_key_contention_stays_live_and_exact() {
    // Every coordinator hammers ONE key on shard 0: maximal write-write
    // conflict. The system must keep committing (no lock leak, no
    // deadlock), and the counter must equal the commit count exactly.
    let hot = make_key(0, 7);
    let mut cluster = cluster_of(
        XenicConfig::full(),
        NetConfig::full(),
        4,
        |_| TxnSpec {
            updates: vec![(hot, UpdateOp::AddI64(1))],
            ship: ShipMode::Nic,
            exec_host_ns: 100,
            exec_nic_ns: 320,
            ..Default::default()
        },
    );
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster);
    let c = committed(&cluster);
    let a = aborted(&cluster);
    // One key fully serializes: the ceiling is window / lock-hold time
    // (~5 ms / ~5.6 µs ≈ 890 commits). Anything in the hundreds proves
    // liveness; a lock leak would freeze it near zero.
    assert!(c > 400, "hot-key throughput collapsed: {c}");
    assert!(a > 50, "contention must cause aborts, got {a}");
    let (v, _) = cluster.states[0].host_table.get(hot).expect("hot key");
    let count = i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
    assert_eq!(count as u64, c, "increments lost or doubled under contention");
    // No residual locks anywhere.
    for st in &cluster.states {
        assert!(
            st.nic_index.held_locks().is_empty(),
            "locks leaked after drain"
        );
    }
}

#[test]
fn read_write_conflict_aborts_are_detected() {
    // Half the coordinators read a hot key (multi-shard read-only so a
    // Validate phase runs), half write it: validation must catch writer
    // interference at least occasionally, and read-only txns never block
    // writers.
    let hot = make_key(0, 3);
    let other = make_key(1, 4);
    let mut cluster = cluster_of(
        XenicConfig::full(),
        NetConfig::full(),
        4,
        |node| {
            if node % 2 == 0 {
                TxnSpec {
                    reads: vec![hot, other],
                    ..Default::default()
                }
            } else {
                TxnSpec {
                    updates: vec![(hot, UpdateOp::AddI64(1))],
                    ship: ShipMode::Nic,
                    ..Default::default()
                }
            }
        },
    );
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster);
    // Readers of a write-locked key are refused at Execute (they would
    // otherwise observe pre-lock values that single-shard writers never
    // re-validate), so hot-key contention caps throughput well below the
    // uncontended rate. Progress under contention is what matters here.
    let c = committed(&cluster);
    assert!(c > 500, "committed {c}");
    assert!(aborted(&cluster) > 0, "validation conflicts expected");
}

#[test]
fn inserts_become_visible_at_the_primary() {
    // Each coordinator inserts fresh keys into shard 0's table.
    let mut next = 1_000u64;
    let part = Partitioning::new(6, 3);
    let cfg = XenicConfig::full();
    struct Inserter {
        next: u64,
        node: usize,
    }
    impl Workload for Inserter {
        fn next_txn(&mut self, _node: usize, _rng: &mut DetRng) -> TxnSpec {
            self.next += 1;
            TxnSpec {
                inserts: vec![(
                    make_key(0, self.next * 16 + self.node as u64),
                    Value::from_bytes(&42i64.to_le_bytes()),
                )],
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }
        fn value_bytes(&self) -> u32 {
            16
        }
        fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
            (0..100)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }
    let _ = &mut next;
    let mut cluster: Cluster<Xenic> =
        Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 2, |node| {
            XenicNode::new(
                node,
                cfg,
                part,
                Box::new(Inserter { next: 1_000, node }),
                2,
            )
        });
    for node in 0..6 {
        for slot in 0..2 {
            cluster.seed(SimTime::from_ns(slot as u64), node, Exec::Host, XMsg::StartTxn { slot });
        }
    }
    for st in &mut cluster.states {
        st.stats.start_measuring(SimTime::ZERO);
    }
    cluster.run_until(SimTime::from_ms(3));
    xenic::harness::drain(&mut cluster, SimTime::from_ms(60));
    let inserted = committed(&cluster);
    assert!(inserted > 100, "inserted {inserted}");
    // Count fresh keys (local > 16_000) at shard 0's primary.
    let fresh = cluster.states[0]
        .host_table
        .iter_keys()
        .filter(|(k, _)| xenic::api::local_of(*k) > 16_000)
        .count() as u64;
    assert_eq!(fresh, inserted, "every committed insert must be visible");
}

#[test]
fn local_read_only_txns_use_no_network() {
    let mut cluster = cluster_of(
        XenicConfig::full(),
        NetConfig::full(),
        4,
        |node| TxnSpec {
            reads: vec![make_key(node as u32, 5)],
            ..Default::default()
        },
    );
    cluster.run_until(SimTime::from_ms(3));
    let c = committed(&cluster);
    assert!(c > 10_000, "local fast path too slow: {c}");
    for node in 0..6 {
        assert_eq!(
            cluster.rt.lio_tx_bytes(node),
            0,
            "read-only local txns must not touch the wire"
        );
    }
    let fast: u64 = cluster
        .states
        .iter()
        .map(|s| s.stats.local_fast_path.get())
        .sum();
    assert!(fast >= c, "all commits should be fast-path");
}

#[test]
fn replication_factor_one_commits_without_logs() {
    let cfg = XenicConfig {
        replication: 1,
        ..XenicConfig::full()
    };
    let mut cluster = cluster_of(cfg, NetConfig::full(), 2, |node| TxnSpec {
        updates: vec![(
            make_key(((node + 1) % 6) as u32, 9),
            UpdateOp::AddI64(1),
        )],
        ship: ShipMode::Nic,
        ..Default::default()
    });
    cluster.run_until(SimTime::from_ms(3));
    drain(&mut cluster);
    assert!(committed(&cluster) > 500);
}

#[test]
fn baseline_op_set_and_no_cache_still_correct() {
    // Figure 9 baseline op set, NIC cache disabled: every read pays DMA,
    // ops are split per key — slower, but exactly as correct.
    let cfg = XenicConfig {
        nic_cache_values: 0,
        ..XenicConfig::fig9_baseline()
    };
    let hot = make_key(2, 11);
    let mut cluster = cluster_of(cfg, NetConfig::baseline(), 2, |_| TxnSpec {
        updates: vec![(hot, UpdateOp::AddI64(1))],
        ..Default::default()
    });
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster);
    let c = committed(&cluster);
    assert!(c > 200, "committed {c}");
    let (v, _) = cluster.states[2].host_table.get(hot).expect("hot key");
    let count = i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
    assert_eq!(count as u64, c);
}

#[test]
fn multihop_toggle_changes_path_not_outcome() {
    let spec_for = |node: usize| TxnSpec {
        reads: vec![make_key(node as u32, 1)],
        updates: vec![(make_key(((node + 2) % 6) as u32, 2), UpdateOp::AddI64(1))],
        ship: ShipMode::Nic,
        ..Default::default()
    };
    let mut with = cluster_of(XenicConfig::full(), NetConfig::full(), 2, spec_for);
    with.run_until(SimTime::from_ms(4));
    drain(&mut with);
    let cfg = XenicConfig {
        occ_multihop: false,
        ..XenicConfig::full()
    };
    let mut without = cluster_of(cfg, NetConfig::full(), 2, spec_for);
    without.run_until(SimTime::from_ms(4));
    drain(&mut without);

    let mh_with: u64 = with.states.iter().map(|s| s.stats.multihop.get()).sum();
    let mh_without: u64 = without.states.iter().map(|s| s.stats.multihop.get()).sum();
    assert!(mh_with > 100, "multihop engaged {mh_with}");
    assert_eq!(mh_without, 0, "toggle must disable multihop");
    // Both end with the identical invariant: counter == commits.
    for cl in [&with, &without] {
        let total: i64 = (0..6)
            .map(|n| {
                let k = make_key(((n + 2) % 6) as u32, 2);
                let st = &cl.states[(n + 2) % 6];
                st.host_table
                    .get(k)
                    .map(|(v, _)| i64::from_le_bytes(v.bytes()[..8].try_into().unwrap()))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total as u64, committed(cl));
    }
}

/// One way a coordinator transaction can be forced to abort.
struct AbortCase {
    name: &'static str,
    cfg: XenicConfig,
    windows: usize,
    spec: fn(usize) -> TxnSpec,
    /// A refusal injected at `(node, msg)` as soon as that node's first
    /// network message has left; `None` when contention alone forces
    /// the abort.
    inject: Option<(usize, XMsg)>,
    /// The span an abort of this kind closes on its way out — `None`
    /// when it leaves untraced (refused before any span opened).
    exit: Option<&'static str>,
}

fn bump(key: u64) -> (u64, UpdateOp) {
    (key, UpdateOp::AddI64(1))
}

#[test]
fn every_abort_exit_releases_everything_and_reports_once() {
    use std::collections::HashMap;
    use xenic_sim::{TraceConfig, TraceKind};
    use xenic_store::TxnId;

    let no_multihop = XenicConfig {
        occ_multihop: false,
        ..XenicConfig::full()
    };
    let cases = [
        AbortCase {
            // Write-write contention on the standard path: Execute lock
            // refusals are the only way out (nothing to validate).
            name: "Exec refusal",
            cfg: no_multihop,
            windows: 4,
            spec: |_| TxnSpec {
                updates: vec![bump(make_key(0, 7)), bump(make_key(1, 9))],
                ship: ShipMode::Nic,
                ..Default::default()
            },
            inject: None,
            exit: Some("Execute"),
        },
        AbortCase {
            // Multi-shard readers race writers of the key they read.
            name: "Validate mismatch",
            cfg: no_multihop,
            windows: 4,
            spec: |node| {
                if node % 2 == 0 {
                    TxnSpec {
                        reads: vec![make_key(0, 3), make_key(1, 4)],
                        ..Default::default()
                    }
                } else {
                    TxnSpec {
                        updates: vec![bump(make_key(0, 3))],
                        ship: ShipMode::Nic,
                        ..Default::default()
                    }
                }
            },
            inject: None,
            exit: Some("Validate"),
        },
        AbortCase {
            // Direct-shipped single-key transactions collide at the
            // remote primary, which refuses the ExecShip. (Node 0's own
            // are local: refused at the door, untraced.)
            name: "MhShipped remote refusal",
            cfg: XenicConfig::full(),
            windows: 4,
            spec: |_| TxnSpec {
                updates: vec![bump(make_key(0, 7))],
                ship: ShipMode::Nic,
                ..Default::default()
            },
            inject: None,
            exit: Some("Execute"),
        },
        AbortCase {
            // Conflict-free shipped transactions; a backup's refusal of
            // node 1's first one is injected ahead of the real acks, so
            // the remote primary — which executed — must be told to
            // release.
            name: "MhShipped backup refusal",
            cfg: XenicConfig::full(),
            windows: 1,
            spec: |node| TxnSpec {
                updates: vec![bump(make_key(((node + 5) % 6) as u32, 50 + node as u64))],
                ship: ShipMode::Nic,
                ..Default::default()
            },
            inject: Some((
                1,
                XMsg::LogResp {
                    txn: TxnId::new(1, 1),
                    from: 2,
                    shard: 0,
                    ok: false,
                },
            )),
            exit: Some("Execute"),
        },
        AbortCase {
            // Local fast path: a node's windows fight over one local key
            // and the NIC refuses the loser's LocalCommit at the door.
            name: "LocalRepl lock conflict",
            cfg: XenicConfig::full(),
            windows: 4,
            spec: |node| TxnSpec {
                updates: vec![bump(make_key(node as u32, 7))],
                ship: ShipMode::Nic,
                ..Default::default()
            },
            inject: None,
            exit: None,
        },
    ];
    for case in cases {
        let name = case.name;
        let net = NetConfig::full().with_trace(TraceConfig::spans());
        let mut cluster = cluster_of(case.cfg, net, case.windows, case.spec);
        if let Some((node, refusal)) = case.inject {
            let mut t = SimTime::ZERO;
            while cluster.rt.net_msgs_sent(node) == 0 {
                t += 100;
                cluster.run_until(t);
            }
            cluster.seed(t + 1, node, Exec::Nic, refusal);
        }
        cluster.run_until(SimTime::from_ms(2));
        drain(&mut cluster);

        // Which span each traced abort closed on its way out.
        let mut last_end: HashMap<(u32, u64), &'static str> = HashMap::new();
        let mut exits: HashMap<&'static str, u64> = HashMap::new();
        for ev in cluster.rt.tracer().events() {
            match ev.kind {
                TraceKind::End { id } => {
                    last_end.insert((ev.node, id), ev.name);
                }
                TraceKind::Instant { id } if ev.name == "Abort" => {
                    *exits.entry(last_end[&(ev.node, id)]).or_default() += 1;
                }
                _ => {}
            }
        }
        let a = aborted(&cluster);
        match case.exit {
            Some(span) => assert!(
                exits.get(span).copied().unwrap_or(0) > 0,
                "{name}: no abort left through {span} (exits {exits:?})"
            ),
            None => assert!(
                a > 0 && exits.is_empty(),
                "{name}: expected untraced aborts only, got {a} with exits {exits:?}"
            ),
        }
        // The exit forgot nothing: no lock or sentinel outlives its
        // transaction, and every attempt got exactly one Outcome.
        xenic::audit::no_locks_held(&cluster.states)
            .unwrap_or_else(|held| panic!("{name}: locks leaked: {held:?}"));
        let attempts: u64 = cluster.states.iter().map(|s| s.client.attempts()).sum();
        assert_eq!(committed(&cluster) + a, attempts, "{name}: one Outcome per attempt");
        assert!(committed(&cluster) > 0, "{name}: nothing committed");
    }
}

#[test]
fn multi_shot_transactions_commit_all_rounds() {
    use xenic::api::TxnRound;
    // Round 0 reads+locks on two shards; round 1 adds a third shard's
    // update — the §4.2 step-3 "subsequent execute requests" path.
    let mut cluster = cluster_of(XenicConfig::full(), NetConfig::full(), 2, |node| {
        let a = make_key(((node + 1) % 6) as u32, 1);
        let b = make_key(((node + 2) % 6) as u32, 2);
        let c = make_key(((node + 3) % 6) as u32, 3);
        TxnSpec {
            reads: vec![a],
            updates: vec![(b, UpdateOp::AddI64(1))],
            rounds: vec![TxnRound {
                reads: vec![],
                updates: vec![(c, UpdateOp::AddI64(1))],
            }],
            ship: ShipMode::Nic,
            ..Default::default()
        }
    });
    cluster.run_until(SimTime::from_ms(4));
    drain(&mut cluster);
    let c = committed(&cluster);
    assert!(c > 500, "multi-shot commits: {c}");
    // Both rounds' updates must land: total of key-2 counters == total of
    // key-3 counters == commits.
    let mut sum_b = 0i64;
    let mut sum_c = 0i64;
    for shard in 0..6u32 {
        let st = &cluster.states[shard as usize];
        if let Some((v, _)) = st.host_table.get(make_key(shard, 2)) {
            sum_b += i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
        }
        if let Some((v, _)) = st.host_table.get(make_key(shard, 3)) {
            sum_c += i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
        }
    }
    assert_eq!(sum_b as u64, c, "round-0 updates lost");
    assert_eq!(sum_c as u64, c, "round-1 updates lost");
    // Multi-shot transactions must not take the (single-round-only)
    // multi-hop path.
    let mh: u64 = cluster.states.iter().map(|s| s.stats.multihop.get()).sum();
    assert_eq!(mh, 0);
}

#[test]
fn tiny_log_ring_backpressures_without_corruption() {
    // A deliberately tiny commit-log ring forces LogFull retries on both
    // the backup and primary paths; the exact-conservation audit must
    // still hold and the system must stay live.
    let cfg = XenicConfig {
        log_capacity_bytes: 512, // a handful of records
        ..XenicConfig::full()
    };
    let hot = make_key(0, 1);
    let mut cluster = cluster_of(cfg, NetConfig::full(), 4, |node| TxnSpec {
        updates: vec![(
            make_key(((node + 1) % 6) as u32, 1),
            UpdateOp::AddI64(1),
        )],
        reads: vec![hot],
        ship: ShipMode::Nic,
        ..Default::default()
    });
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster);
    let c = committed(&cluster);
    assert!(c > 500, "backpressured cluster wedged: {c}");
    let mut sum = 0i64;
    for shard in 0..6u32 {
        let st = &cluster.states[shard as usize];
        if let Some((v, _)) = st.host_table.get(make_key(shard, 1)) {
            sum += i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
        }
    }
    assert_eq!(sum as u64, c, "backpressure corrupted the counters");
    let outstanding: usize = cluster.states.iter().map(|s| s.log.outstanding()).sum();
    assert_eq!(outstanding, 0);
}

#[test]
fn batching_factors_grow_with_load() {
    // §4.3 observability: opportunistic aggregation and DMA vector fill
    // must both increase when the cluster moves from idle to saturated.
    use xenic::harness::{run_xenic, RunOptions};
    struct Spread;
    impl Workload for Spread {
        fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
            let s = ((node as u64 + 1 + rng.below(5)) % 6) as u32;
            TxnSpec {
                reads: vec![make_key(node as u32, rng.below(5_000))],
                updates: vec![(make_key(s, rng.below(5_000)), UpdateOp::AddI64(1))],
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }
        fn value_bytes(&self) -> u32 {
            16
        }
        fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
            (0..5_000)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }
    let mk = |_: usize| -> Box<dyn Workload> { Box::new(Spread) };
    let run = |windows| {
        run_xenic(
            HwParams::paper_testbed(),
            NetConfig::full(),
            XenicConfig::full(),
            &RunOptions {
                windows,
                warmup: SimTime::from_ms(1),
                measure: SimTime::from_ms(4),
                seed: 2,
                lanes: 1,
                ..Default::default()
            },
            mk,
        )
    };
    let low = run(2);
    let high = run(64);
    assert!(low.ops_per_frame >= 1.0);
    assert!(
        high.ops_per_frame > low.ops_per_frame * 1.3,
        "aggregation must grow with load: {} -> {}",
        low.ops_per_frame,
        high.ops_per_frame
    );
    assert!(
        high.dma_vector_fill >= low.dma_vector_fill,
        "vector fill must not shrink with load: {} -> {}",
        low.dma_vector_fill,
        high.dma_vector_fill
    );
}

/// The per-transaction maps are pre-sized in `XenicNode::new` from
/// config-derived bounds (slots, nodes, preload size) precisely so the
/// hot path never rehashes mid-run. A capacity that grows under a
/// write-heavy cross-shard load means the sizing formula went stale.
#[test]
fn hot_maps_never_grow_after_construction() {
    let mut cluster = cluster_of(
        XenicConfig::full(),
        NetConfig::full(),
        4,
        |node| TxnSpec {
            reads: vec![make_key(((node + 1) % 6) as u32, 3)],
            updates: vec![
                (make_key(node as u32, 5), UpdateOp::AddI64(1)),
                (make_key(((node + 2) % 6) as u32, 9), UpdateOp::Mutate),
            ],
            ship: ShipMode::Nic,
            exec_host_ns: 100,
            exec_nic_ns: 320,
            ..Default::default()
        },
    );
    let before: Vec<Vec<usize>> = cluster
        .states
        .iter()
        .map(|s| s.hot_map_capacities())
        .collect();
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster);
    assert!(committed(&cluster) > 100, "workload must actually commit");
    for (node, st) in cluster.states.iter().enumerate() {
        assert_eq!(
            st.hot_map_capacities(),
            before[node],
            "node {node}: a hot map rehashed mid-run; fix the capacity \
             formula in XenicNode::new"
        );
    }
}

/// The message enum rides in every queue slot, inbox entry, and
/// aggregation buffer, so its footprint is a performance contract
/// (msg.rs promises this guard): large variants must stay boxed.
#[test]
fn message_and_event_stay_cacheline_sized() {
    assert!(
        std::mem::size_of::<XMsg>() <= 40,
        "XMsg grew to {} bytes; box the new variant's body",
        std::mem::size_of::<XMsg>()
    );
    assert!(
        std::mem::size_of::<xenic_net::Event<XMsg>>() <= 64,
        "Event<XMsg> grew to {} bytes; box the offending payload",
        std::mem::size_of::<xenic_net::Event<XMsg>>()
    );
}
