//! The baselines' side of the one run harness (`xenic::harness`):
//! [`Baseline`] as an [`Engine`], so Figure 8 compares five systems with
//! identical load generation, measurement windows and schedulers.

use crate::engine::{Baseline, BaselineKind, BaselineNode};
use xenic::api::{Partitioning, Workload};
use xenic::client::Client;
use xenic::harness::{run, Engine, RunOptions, RunResult};
use xenic::stats::NodeStats;
use xenic_check::HistoryRecorder;
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_store::{Key, Value, Version};

impl Engine for Baseline {
    type Config = BaselineKind;

    fn node(
        node: usize,
        nodes: usize,
        kind: BaselineKind,
        workload: Box<dyn Workload>,
        windows: usize,
    ) -> BaselineNode {
        // RDMA systems replicate 3-way like Xenic's benchmarks.
        let part = Partitioning::new(nodes as u32, 3);
        BaselineNode::new(node, kind, part, workload, windows)
    }

    fn stats(state: &mut BaselineNode) -> &mut NodeStats {
        &mut state.stats
    }

    fn set_recorder(state: &mut BaselineNode, recorder: HistoryRecorder) {
        state.set_recorder(recorder);
    }

    fn client(state: &mut BaselineNode) -> &mut Client {
        &mut state.client
    }

    fn visit_rows(state: &BaselineNode, visit: &mut dyn FnMut(Key, &Value, Version)) {
        state.visit_rows(visit);
    }
}

/// The baselines' post-drain residue audit: the first node still holding
/// a lock word, an insert sentinel or a live coordinator context. Their
/// one-sided and RPC lanes are reliable, so off crash plans a drained
/// cluster must hold none.
pub fn residue(states: &[BaselineNode]) -> Result<(), String> {
    match states.iter().enumerate().find_map(|(n, st)| st.residue().map(|r| (n, r))) {
        Some((n, r)) => Err(format!("node {n}: {r} after drain")),
        None => Ok(()),
    }
}

/// Builds and runs a baseline cluster under the given workload.
pub fn run_baseline(
    kind: BaselineKind,
    params: HwParams,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
) -> RunResult {
    // Baselines never use the LiquidIO path; aggregation knobs are moot.
    run::<Baseline>(params, NetConfig::baseline(), kind, opts, mk_workload).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xenic::api::{make_key, ShipMode, TxnSpec, UpdateOp};
    use xenic_sim::{DetRng, SimTime};
    use xenic_store::Value;

    struct MiniWl {
        keys: u64,
        remote_frac: f64,
    }

    impl Workload for MiniWl {
        fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
            let home = node as u32;
            let shard = if rng.chance(self.remote_frac) {
                let mut s = rng.below(6) as u32;
                if s == home {
                    s = (s + 1) % 6;
                }
                s
            } else {
                home
            };
            let k1 = make_key(shard, rng.below(self.keys));
            let k2 = make_key(home, rng.below(self.keys));
            TxnSpec {
                reads: vec![k2],
                updates: vec![(k1, UpdateOp::AddI64(1))],
                inserts: vec![],
                exec_host_ns: 200,
                exec_nic_ns: 650,
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }

        fn value_bytes(&self) -> u32 {
            12
        }

        fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
            (0..self.keys)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }

    fn opts() -> RunOptions {
        RunOptions {
            windows: 4,
            warmup: SimTime::from_ms(1),
            measure: SimTime::from_ms(4),
            seed: 7,
            lanes: 1,
            ..Default::default()
        }
    }

    fn mini(frac: f64) -> impl Fn(usize) -> Box<dyn Workload> {
        move |_| Box::new(MiniWl { keys: 2000, remote_frac: frac })
    }

    fn go(kind: BaselineKind, mk: impl Fn(usize) -> Box<dyn Workload>) -> RunResult {
        run::<Baseline>(HwParams::paper_testbed(), NetConfig::baseline(), kind, &opts(), mk).0
    }

    #[test]
    fn drtmh_commits() {
        let r = go(BaselineKind::DrtmH, mini(0.8));
        assert!(r.committed > 500, "committed {}", r.committed);
        assert!(r.p50_ns > 2_000 && r.p50_ns < 300_000, "p50 {}", r.p50_ns);
    }

    #[test]
    fn fasst_commits() {
        let r = go(BaselineKind::Fasst, mini(0.8));
        assert!(r.committed > 500, "committed {}", r.committed);
        assert!(r.host_busy_cores > 0.0);
    }

    #[test]
    fn drtmr_commits() {
        let r = go(BaselineKind::DrtmR, mini(0.8));
        assert!(r.committed > 500, "committed {}", r.committed);
    }

    #[test]
    fn nc_is_slower_than_cached() {
        let cached = go(BaselineKind::DrtmH, mini(0.9));
        let nc = go(BaselineKind::DrtmHNc, mini(0.9));
        assert!(
            nc.p50_ns >= cached.p50_ns,
            "NC p50 {} must be >= cached p50 {}",
            nc.p50_ns,
            cached.p50_ns
        );
        assert!(
            nc.tput_per_server <= cached.tput_per_server * 1.05,
            "NC tput {} vs cached {}",
            nc.tput_per_server,
            cached.tput_per_server
        );
    }

    #[test]
    fn deterministic() {
        let a = go(BaselineKind::DrtmH, mini(0.5));
        let b = go(BaselineKind::DrtmH, mini(0.5));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.p50_ns, b.p50_ns);
    }

    #[test]
    fn no_lock_leaks_after_quiescence() {
        // Heavy contention, then verify no residual lock is ancient: run
        // and check the cluster keeps committing in the last quarter of
        // the window (a leak would freeze throughput like the Xenic
        // multihop bug this suite guards against).
        let r = go(BaselineKind::DrtmR, move |_| Box::new(MiniWl { keys: 60, remote_frac: 0.8 }));
        assert!(r.committed > 200, "committed {} under contention", r.committed);
        assert!(r.aborted > 0, "contention must abort sometimes");
    }
}
