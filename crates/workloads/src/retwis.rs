//! The Retwis benchmark (paper §5.4).
//!
//! "A Twitter-like application ... a mix of transaction types, with 50%
//! read-only transactions and 1–10 keys per transaction ... objects are
//! moderately larger (64 B ...), accessed with a Zipf distribution,
//! α = 0.5, with a higher proportion of read-only transactions ... 1
//! million keys per server."
//!
//! The transaction mix follows the Retwis adaptation used by TAPIR and
//! Meerkat (the paper's citations [41, 47]):
//!
//! | type | mix | shape |
//! |---|---|---|
//! | AddUser | 5% | 1 read, 3 writes |
//! | Follow/Unfollow | 15% | 2 reads, 2 writes |
//! | PostTweet | 30% | 3 reads, 5 writes |
//! | GetTimeline | 50% | 1–10 reads (read-only) |

use xenic::api::{make_key, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic_sim::{DetRng, Zipf};
use xenic_store::{Key, Value};

/// Retwis configuration.
#[derive(Clone, Copy, Debug)]
pub struct RetwisConfig {
    /// Keys per server.
    pub keys_per_node: u64,
    /// Cluster size.
    pub nodes: u32,
    /// Zipf exponent (paper: 0.5).
    pub alpha: f64,
    /// Value size (paper: 64 B).
    pub value_bytes: u32,
}

impl RetwisConfig {
    /// The paper's scale: 1 M keys per server.
    pub fn paper(nodes: u32) -> Self {
        RetwisConfig {
            keys_per_node: 1_000_000,
            nodes,
            alpha: 0.5,
            value_bytes: 64,
        }
    }

    /// Simulation scale: 1/10th keyspace, same skew.
    pub fn sim(nodes: u32) -> Self {
        RetwisConfig {
            keys_per_node: 100_000,
            ..Self::paper(nodes)
        }
    }
}

/// The Retwis workload generator for one node.
pub struct Retwis {
    cfg: RetwisConfig,
    zipf: Zipf,
}

impl Retwis {
    /// Creates a generator (builds the Zipf sampler once).
    pub fn new(cfg: RetwisConfig) -> Self {
        Retwis {
            zipf: Zipf::new(cfg.keys_per_node as usize, cfg.alpha),
            cfg,
        }
    }

    /// Draws a key: Zipf-ranked within a uniformly chosen shard.
    fn pick(&self, rng: &mut DetRng) -> Key {
        let shard = rng.below(u64::from(self.cfg.nodes)) as u32;
        let local = self.zipf.sample(rng) as u64;
        make_key(shard, local)
    }

    /// Draws `n` distinct keys.
    fn pick_distinct(&self, rng: &mut DetRng, n: usize) -> Vec<Key> {
        let mut keys = Vec::with_capacity(n);
        let mut guard = 0;
        while keys.len() < n && guard < n * 20 {
            let k = self.pick(rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
            guard += 1;
        }
        keys
    }

    /// A transaction over `n` distinct keys: the first `reads` are read,
    /// the rest updated. The drawn key vector becomes the read set after
    /// the update tail is mapped off it, so one vector serves both.
    fn read_then_update(&self, rng: &mut DetRng, n: usize, reads: usize) -> TxnSpec {
        let mut keys = self.pick_distinct(rng, n);
        let updates = keys[reads..]
            .iter()
            .map(|k| (*k, UpdateOp::Mutate))
            .collect();
        keys.truncate(reads);
        TxnSpec {
            reads: keys,
            updates,
            ..Default::default()
        }
    }
}

impl Workload for Retwis {
    fn next_txn(&mut self, _node: usize, rng: &mut DetRng) -> TxnSpec {
        let kind = rng.below(100);
        let mut spec = match kind {
            // AddUser: 1 read, 3 writes (profile, followers, following).
            0..=4 => self.read_then_update(rng, 4, 1),
            // Follow: 2 reads, 2 writes.
            5..=19 => self.read_then_update(rng, 4, 2),
            // PostTweet: 3 reads, 5 writes (tweet, timelines, lists).
            20..=49 => self.read_then_update(rng, 8, 3),
            // GetTimeline: 1–10 reads.
            _ => {
                let n = rng.range_inclusive(1, 10) as usize;
                TxnSpec {
                    reads: self.pick_distinct(rng, n),
                    ..Default::default()
                }
            }
        };
        // "Minimal coordinator-side computation is involved" (§5.4):
        // everything ships to the NIC.
        spec.ship = ShipMode::Nic;
        spec.exec_host_ns = 120;
        spec.exec_nic_ns = 390;
        spec
    }

    fn value_bytes(&self) -> u32 {
        self.cfg.value_bytes
    }

    fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
        let template = Value::filled(self.cfg.value_bytes as usize, 0x5A);
        (0..self.cfg.keys_per_node)
            .map(|i| (make_key(shard, i), template.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Retwis {
        Retwis::new(RetwisConfig {
            keys_per_node: 10_000,
            nodes: 6,
            alpha: 0.5,
            value_bytes: 64,
        })
    }

    #[test]
    fn mix_is_half_read_only() {
        let mut w = wl();
        let mut rng = DetRng::new(1);
        let mut ro = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if w.next_txn(0, &mut rng).is_read_only() {
                ro += 1;
            }
        }
        let frac = ro as f64 / N as f64;
        assert!((0.46..=0.54).contains(&frac), "read-only {frac}");
    }

    #[test]
    fn key_counts_in_range() {
        let mut w = wl();
        let mut rng = DetRng::new(2);
        for _ in 0..5_000 {
            let s = w.next_txn(0, &mut rng);
            let n = s.all_keys().count();
            assert!((1..=10).contains(&n), "keys {n}");
            // No duplicate keys within a transaction.
            let mut keys: Vec<_> = s.all_keys().collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n);
        }
    }

    #[test]
    fn zipf_head_is_hotter() {
        let mut w = wl();
        let mut rng = DetRng::new(3);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..5_000 {
            let s = w.next_txn(0, &mut rng);
            for k in s.all_keys() {
                if xenic::api::local_of(k) < 1_000 {
                    head += 1;
                }
                total += 1;
            }
        }
        // Top 10% of ranks get far more than 10% of accesses at α = 0.5
        // (≈ 31% analytically for n = 10k).
        let frac = head as f64 / total as f64;
        assert!(frac > 0.2, "head fraction {frac}");
    }

    #[test]
    fn values_are_64_bytes() {
        let w = wl();
        assert_eq!(w.value_bytes(), 64);
        let data = w.preload(0);
        assert_eq!(data.len(), 10_000);
        assert!(data.iter().all(|(_, v)| v.len() == 64));
    }

    #[test]
    fn writes_preserve_value_size() {
        let mut w = wl();
        let mut rng = DetRng::new(4);
        let old = Value::filled(64, 1);
        for _ in 0..200 {
            let s = w.next_txn(0, &mut rng);
            for (_, op) in &s.updates {
                assert_eq!(op.apply(&old).len(), 64);
            }
        }
    }
}
