//! The cluster runtime: nodes, core scheduling, byte-accurate fabric,
//! opportunistic aggregation, and the asynchronous DMA framework
//! (paper §4.3).
//!
//! Protocol engines (Xenic in `xenic`, the RDMA baselines in
//! `xenic-baselines`) are written as message handlers over this runtime:
//!
//! * every message is delivered to a node's **host** or **NIC** core pool
//!   and waits for an idle core (queueing delay emerges under load);
//! * handler costs are charged in nanoseconds of core time (from the
//!   paper-calibrated [`xenic_hw::HwParams`]);
//! * sends travel one of three lanes — NIC-to-NIC **Ethernet**, intra-node
//!   **PCIe** messages, or **local** hand-off — each with serialization,
//!   per-frame overhead, and latency;
//! * with `aggregation` enabled, outputs to the same destination within
//!   a poll burst share one Ethernet frame, and host↔NIC messages in one
//!   direction share one PCIe transfer (§4.3.2 "opportunistic
//!   batching"); both flush through one [`Event::Flush`];
//! * with `async_dma` enabled, DMA requests accumulate into 15-element
//!   vectors with completion callbacks (§4.3.1 "asynchronous operations");
//! * the CX5 model composes one-sided verbs and two-sided RPCs for the
//!   baseline systems;
//! * a [`FaultPlan`] can deterministically drop, duplicate, delay, and
//!   partition Ethernet-lane traffic and crash-stop/restart whole nodes,
//!   all driven from dedicated per-node RNG streams so chaos runs replay
//!   exactly.

pub mod config;
pub mod lanes;
pub mod runtime;

pub use config::{CrashEvent, FaultPlan, LinkFaults, NetConfig, Partition};
pub use lanes::{LaneAssignment, LaneStats, ParCluster};
pub use runtime::{Chan, Cluster, Event, Exec, Protocol, Runtime};
pub use xenic_sim::{TraceConfig, Tracer};
