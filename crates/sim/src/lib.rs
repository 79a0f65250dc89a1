//! Deterministic discrete-event simulation (DES) kernel for the Xenic
//! reproduction.
//!
//! The Xenic paper (SOSP 2021) evaluates on a 6-server testbed with Marvell
//! LiquidIO 3 SmartNICs and Mellanox CX5 RDMA NICs. This crate provides the
//! substrate on which we rebuild that testbed in software: a virtual clock,
//! a totally-ordered event queue, deterministic random number generation,
//! and the measurement machinery (histograms, counters, rate meters) used
//! by every experiment harness.
//!
//! # Determinism
//!
//! Every simulation run is a pure function of `(configuration, seed)`:
//!
//! * Events scheduled for the same timestamp are processed in FIFO order of
//!   their insertion sequence number, so iteration order never depends on
//!   heap internals.
//! * All randomness flows through [`DetRng`], a seeded PRNG with labeled
//!   stream splitting, so adding a new consumer of randomness does not
//!   perturb existing streams.
//!
//! # Example
//!
//! ```
//! use xenic_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_us(3), "c");
//! q.push(SimTime::from_us(1), "a");
//! q.push(SimTime::from_us(1), "b"); // same time: FIFO
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

pub mod event;
pub mod fasthash;
pub mod prefetch;
pub mod rng;
pub mod smallvec;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fasthash::{FastMap, FastSet};
pub use prefetch::prefetch;
pub use smallvec::SmallVec;
pub use rng::{DetRng, Zipf};
pub use stats::{Counter, Histogram, Meter, Summary};
pub use time::SimTime;
pub use trace::{Component, Span, TraceConfig, TraceEvent, TraceKind, Tracer};
