//! Xenic's co-designed data store and the baseline structures it is
//! evaluated against (paper §4.1, Table 2).
//!
//! * [`robinhood`] — the host-side Robinhood hash table with a global
//!   displacement limit `Dm`, fixed-size segments, per-segment overflow
//!   buckets, backward-shift deletion, and copy-list (DMA-consistent)
//!   swapping (§4.1.2).
//! * [`nic_index`] — the SmartNIC caching index: per-segment entries with
//!   cached hot objects, transaction metadata (locks, versions), and the
//!   `d_i` displacement hints that make cache-miss lookups a common-case
//!   single DMA read (§4.1.3).
//! * [`hopscotch`] — FaRM's Hopscotch table (H = 8), the one-sided-RDMA
//!   baseline structure (§4.1.4).
//! * [`chained`] — DrTM+H's fixed-size-bucket chained table (B = 4/8/16).
//! * [`btree`] — a B+tree for TPC-C's local tables (§5.2).
//! * [`log`] — the host-memory commit log the NIC appends to and host
//!   worker threads drain (§4.2 steps 5–7).
//!
//! All structures are *real*: they store real keys and values and their
//! probe behaviour is measured, not modeled. Remote-access cost comes out
//! as [`robinhood::LookupTrace`] values (regions read, objects scanned,
//! roundtrips) that the protocol engines convert to simulated time.

pub mod btree;
pub mod chained;
pub mod hash;
pub mod hopscotch;
pub mod log;
pub mod nic_index;
pub mod robinhood;
pub mod types;

pub use btree::BTree;
pub use chained::ChainedTable;
pub use hopscotch::HopscotchTable;
pub use log::{CommitLog, LogEntry, LogKind, SharedWrites};
pub use nic_index::{NicIndex, NicLookup};
pub use robinhood::{LookupTrace, RobinhoodTable};
pub use types::{Key, LockState, TxnId, Value, Version, WritePayload};
