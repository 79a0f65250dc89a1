//! RDMA-era baseline transaction systems, reimplemented on the same
//! substrate as Xenic (paper §2.2.2 and §5.1).
//!
//! The paper compares Xenic against four configurations of the DrTM+H
//! framework, all driven over Mellanox CX5 RDMA NICs:
//!
//! * [`BaselineKind::DrtmH`] — the best-case hybrid: one-sided READs for
//!   execution and validation, one-sided ATOMICs for locks, one-sided
//!   WRITEs for backup logging, two-sided RPCs for commit. A
//!   coordinator-side **location cache** makes remote lookups a single
//!   exact-object READ.
//! * [`BaselineKind::DrtmHNc`] — the same with the location cache
//!   disabled: execution reads walk the real chained-bucket hash table
//!   over RDMA, one roundtrip per bucket hop.
//! * [`BaselineKind::Fasst`] — all two-sided RPCs (Kalia et al.):
//!   no special data structure (lookups run at the RPC handler), and
//!   consolidated operations — one RPC both locks and reads per shard.
//! * [`BaselineKind::DrtmR`] — all one-sided: the coordinator CAS-locks
//!   *every* key (read and write sets), so no validation phase; commit
//!   applies values and releases locks with one-sided WRITEs.
//!
//! All four share Xenic's workload API (`xenic::api`), OCC skeleton, and
//! measurement harness — [`Baseline`] implements `xenic::harness::Engine`
//! (in [`harness`]), so `xenic::harness::{build, measure, run,
//! run_recorded, drain, cluster_digest}` drive it exactly as they drive
//! Xenic, lane scheduler included — so Figure 8's five-way comparison is
//! apples to apples, and the fuzzer's post-drain referee audits baseline
//! cells with [`residue`] as it audits Xenic cells.
//!
//! [`engine`] holds the protocol itself: one coordinator that steps
//! through a per-system phase sequence (DrTM+H/NC read, lock, validate,
//! log; DrTM+R lock, read, log; FaSST execute-RPC, validate, log) and
//! leaves through one exit. Every remote operation pays the measured CX5
//! costs: verb pipeline occupancy (§3.4's 13.5–15 Mops/s ceiling),
//! per-verb wire overhead, and — for RPCs — remote host CPU time (§3.3's
//! 23 Mops/s).

pub mod engine;
pub mod harness;

pub use engine::{Baseline, BaselineKind, BaselineNode};
pub use harness::{residue, run_baseline};
