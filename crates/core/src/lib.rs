//! # Xenic: SmartNIC-Accelerated Distributed Transactions
//!
//! A faithful reimplementation of **Xenic** (Schuh, Liang, Liu, Nelson,
//! Krishnamurthy — SOSP 2021) as a deterministic simulation-backed
//! library. Xenic is a serializable, replicated distributed transaction
//! system that offloads its OCC commit protocol onto on-path SmartNICs:
//! locks and hot objects live in NIC memory, host data is reached with
//! hint-bounded DMA reads, execution logic is function-shipped to NICs,
//! and multi-hop commit patterns cut message delays.
//!
//! The hardware the paper requires (Marvell LiquidIO 3 SmartNICs,
//! Mellanox CX5 RDMA NICs, a 6-server 100 Gbps testbed) is replaced by a
//! calibrated discrete-event substrate (`xenic-sim`, `xenic-hw`,
//! `xenic-net`); the data structures and protocol logic are real.
//!
//! ## Quick start
//!
//! ```
//! use xenic::api::{make_key, ShipMode, TxnSpec, UpdateOp, Workload};
//! use xenic::config::XenicConfig;
//! use xenic::harness::{run_xenic, RunOptions};
//! use xenic_hw::HwParams;
//! use xenic_net::NetConfig;
//! use xenic_sim::{DetRng, SimTime};
//! use xenic_store::Value;
//!
//! // A toy workload: each transaction increments a counter on the next
//! // node's shard and reads one local key.
//! struct Counters;
//! impl Workload for Counters {
//!     fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
//!         let remote = ((node + 1) % 6) as u32;
//!         TxnSpec {
//!             reads: vec![make_key(node as u32, rng.below(1000))],
//!             updates: vec![(make_key(remote, rng.below(1000)), UpdateOp::AddI64(1))],
//!             inserts: vec![],
//!             exec_host_ns: 200,
//!             exec_nic_ns: 650,
//!             ship: ShipMode::Nic,
//!             ..Default::default()
//!         }
//!     }
//!     fn value_bytes(&self) -> u32 { 12 }
//!     fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
//!         (0..1000).map(|i| (make_key(shard, i), Value::filled(12, 0))).collect()
//!     }
//! }
//!
//! let result = run_xenic(
//!     HwParams::paper_testbed(),
//!     NetConfig::full(),
//!     XenicConfig::full(),
//!     &RunOptions { windows: 4, warmup: SimTime::from_ms(1),
//!                   measure: SimTime::from_ms(3), seed: 1,
//!                   ..Default::default() },
//!     |_| Box::new(Counters),
//! );
//! assert!(result.committed > 0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`api`] | §4.2.2 | Transaction specs, shippable update ops, partitioning, the [`api::Workload`] trait |
//! | [`config`] | §5.7 | [`config::XenicConfig`] with the Figure 9 ablation knobs |
//! | [`msg`] | §4.3 | Protocol messages with byte-accurate wire sizes |
//! | [`engine`] | §4.2 | Coordinator/server NIC handlers: Execute, Validate, Log, Commit, shipping, multi-hop, local fast path |
//! | [`repl`] | §4.2 step 5 | Pluggable NIC-resident replication backends: log shipping, Raft-style, Hermes-style (DESIGN.md §15) |
//! | [`recovery`] | §4.2.1 | Lease-based membership, primary and coordinator failure recovery |
//! | [`audit`] | — | Exact whole-cluster correctness checks (conservation, convergence) |
//! | [`client`] | §5 | The closed-loop client all five systems share: slots, retries, commit/abort accounting, the drain gate |
//! | [`harness`] | §5 | The one run path for all five systems: [`harness::build`] + [`harness::measure`], generic over [`harness::Engine`] |
//! | [`stats`] | §5 | Per-node counters and latency histograms |

pub mod api;
pub mod audit;
pub mod client;
pub mod config;
pub mod engine;
pub mod harness;
pub mod msg;
pub mod recovery;
pub mod repl;
pub mod stats;

pub use api::{local_of, make_key, shard_of, Partitioning, ShipMode, TxnSpec, UpdateOp, Workload};
pub use config::{ReplBackend, Weakening, XenicConfig};
pub use engine::{Xenic, XenicNode};
pub use harness::{run_xenic, run_xenic_cluster_with, Engine, LaneAssign, RunOptions, RunResult};
pub use msg::XMsg;
pub use stats::NodeStats;

/// Resolves a user-facing parallelism knob (`--jobs N`, `--lanes N`,
/// [`harness::RunOptions::lanes`]): `0` means "use the machine" and
/// clamps to `std::thread::available_parallelism()`; any other value
/// passes through unchanged.
pub fn resolve_parallelism(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    }
}

#[cfg(test)]
mod parallelism_tests {
    use super::resolve_parallelism;

    #[test]
    fn zero_clamps_to_machine_parallelism() {
        let machine = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(resolve_parallelism(0), machine);
        assert!(resolve_parallelism(0) >= 1, "never resolves to zero workers");
    }

    #[test]
    fn nonzero_passes_through() {
        for n in [1usize, 2, 4, 7, 128] {
            assert_eq!(resolve_parallelism(n), n);
        }
    }
}
