//! Figure 4: DMA engine throughput and latency, single requests versus
//! full 15-element vectors (paper §3.5).
//!
//! Drives the calibrated [`xenic_hw::DmaEngine`] directly: 8 cores, each
//! with a dedicated hardware queue, submitting reads or writes of
//! 64–1024 B buffers either one at a time or as full vectors.

use xenic_hw::dma::{DmaKind, DmaOp};
use xenic_hw::{DmaEngine, HwParams};
use xenic_sim::SimTime;

/// Sustained element throughput across all 8 queues, Mops/s.
fn throughput(kind: DmaKind, bytes: u32, vector: usize) -> f64 {
    let p = HwParams::paper_testbed();
    let mut engine = DmaEngine::new(&p);
    let horizon = SimTime::from_ms(1);
    let ops = vec![DmaOp { kind, bytes }; vector];
    let mut completions = Vec::new();
    let mut done = 0u64;
    // Each queue is driven by one core issuing back-to-back submissions.
    for q in 0..p.dma_queues {
        let mut t = SimTime::ZERO;
        while t < horizon {
            let busy = engine.submit(t, q, &ops, &mut completions);
            // The core is busy for the submission, then waits for the
            // queue to accept more (throughput test: no completion wait).
            t = (t + busy).max(engine.queue_free_at(q));
            done += vector as u64;
        }
    }
    done as f64 / horizon.as_secs_f64() / 1e6
}

/// Submission cost and first-element completion latency, ns — Fig 4(b)'s
/// observation is that a full vector's *first* element completes as fast
/// as a lone request (amortizing submission without adding latency).
fn latency(kind: DmaKind, bytes: u32, vector: usize) -> (u64, u64) {
    let p = HwParams::paper_testbed();
    let mut engine = DmaEngine::new(&p);
    let ops = vec![DmaOp { kind, bytes }; vector];
    let mut completions = Vec::new();
    let busy = engine.submit(SimTime::ZERO, 0, &ops, &mut completions);
    (busy, completions[0].as_ns())
}

fn main() {
    println!("# Figure 4(a): DMA engine throughput [Mops/s], 8 queues");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "bytes", "R x1", "R x15", "W x1", "W x15"
    );
    for bytes in [64u32, 128, 256, 512, 1024] {
        println!(
            "{bytes:>6} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            throughput(DmaKind::Read, bytes, 1),
            throughput(DmaKind::Read, bytes, 15),
            throughput(DmaKind::Write, bytes, 1),
            throughput(DmaKind::Write, bytes, 15),
        );
    }
    println!();
    println!("# Figure 4(b): DMA latency [ns] (submission busy / completion)");
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "bytes", "R x1", "R x15", "W x1", "W x15"
    );
    for bytes in [64u32, 256, 1024] {
        let r1 = latency(DmaKind::Read, bytes, 1);
        let r15 = latency(DmaKind::Read, bytes, 15);
        let w1 = latency(DmaKind::Write, bytes, 1);
        let w15 = latency(DmaKind::Write, bytes, 15);
        println!(
            "{bytes:>6} {:>7}/{:<6} {:>7}/{:<6} {:>7}/{:<6} {:>7}/{:<6}",
            r1.0, r1.1, r15.0, r15.1, w1.0, w1.1, w15.0, w15.1
        );
    }
    println!();
    println!("(paper: vectored submission reaches 8.7 Mops/s per queue; full");
    println!(" vectors do not add completion latency; reads complete in up to");
    println!(" 1295 ns and writes in up to 570 ns)");
}
