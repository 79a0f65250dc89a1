//! Common data-store types: keys, values, versions, transaction ids, and
//! lock state.

use std::fmt;
use std::iter;
use std::sync::{Arc, OnceLock};

/// A database key. Workloads map their composite keys (warehouse id,
/// account number, post id, ...) into this 64-bit space; see
/// `xenic-workloads::keys`.
pub type Key = u64;

/// An object version number ("Seq" in the paper's Figure 5). Incremented
/// by the Commit phase; compared by the Validate phase.
pub type Version = u64;

/// A value payload. The shared `Arc<[u8]>` backing keeps cloning a
/// refcount bump while transactions carry read-set snapshots around the
/// cluster. `Arc`, not `Rc`: the multi-lane cluster scheduler ships
/// message payloads between lane worker threads at epoch barriers
/// (DESIGN.md §16), so value buffers must be `Send`. The uncontended
/// atomic refcount costs a few cycles on the clone path; lane-parallel
/// runs buy that back many times over.
#[derive(Clone, PartialEq, Eq)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// Creates a value from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Value(Arc::from(bytes))
    }

    /// Creates a value from an owned buffer. `Arc<[u8]>` keeps its
    /// refcounts in front of the bytes, so this allocates and copies
    /// exactly like [`Value::from_bytes`]; building the bytes in place
    /// (see [`WritePayload::apply`]) is what saves the second allocation.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Value(Arc::from(bytes))
    }

    /// A value of `len` copies of `fill` — handy for synthetic workloads.
    /// One allocation: the bytes are written straight into the `Arc`.
    pub fn filled(len: usize, fill: u8) -> Self {
        Value(iter::repeat_n(fill, len).collect())
    }

    /// The empty value. Every call shares one buffer, so neither this nor
    /// a clone of its result allocates.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Value> = OnceLock::new();
        EMPTY.get_or_init(|| Value::from_bytes(&[])).clone()
    }

    /// The payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hints the CPU to fetch the line holding the leading bytes (and,
    /// right before them, the refcount a clone or a copy-on-write check
    /// touches). Changes nothing.
    pub fn prefetch(&self) {
        xenic_sim::prefetch(self.0.as_ptr());
    }

    /// Mutable access to the bytes when this is the only `Arc` holder —
    /// lets length-preserving writes update a table-resident value
    /// without reallocating. Returns `None` if any snapshot still shares
    /// the buffer (the caller must copy-on-write via
    /// [`WritePayload::apply`]).
    pub fn bytes_mut_if_unique(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix: Vec<u8> = self.0.iter().take(4).copied().collect();
        write!(f, "Value[{}B {:02x?}..]", self.0.len(), prefix)
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Self {
        Value::from_bytes(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::from_vec(b)
    }
}

/// What a replicated write carries on the wire and in the log: either the
/// full new value, or a small self-contained operation ("delta") that each
/// replica applies to its own copy — the payoff of function shipping: a
/// TPC-C stock decrement travels as ~20 bytes instead of a 320-byte row.
#[derive(Clone, Debug, PartialEq)]
pub enum WritePayload {
    /// The complete new value.
    Full(Value),
    /// Add to the leading little-endian i64 counter.
    AddI64(i64),
    /// Deterministic same-size rewrite (first byte incremented).
    Mutate,
}

impl WritePayload {
    /// Applies the payload to the replica's current value. A delta copies
    /// `current` once, straight into the new value's buffer (zero-padded
    /// to 8 bytes for an `AddI64` on a shorter value), and edits the copy
    /// in place; `current` is left untouched.
    pub fn apply(&self, current: &Value) -> Value {
        let mut out = match self {
            WritePayload::Full(v) => return v.clone(),
            WritePayload::AddI64(_) if current.len() < 8 => {
                let mut padded = [0u8; 8];
                padded[..current.len()].copy_from_slice(current.bytes());
                Value::from_bytes(&padded)
            }
            WritePayload::AddI64(_) | WritePayload::Mutate => Value::from_bytes(current.bytes()),
        };
        self.edit(Arc::get_mut(&mut out.0).expect("a fresh value is unique"));
        out
    }

    /// The value this payload gives a key that has none yet (an insert
    /// landing at a replica): `apply` to an empty value, without building
    /// one. `Full` hands back its own buffer.
    pub fn apply_absent(&self) -> Value {
        match self {
            WritePayload::Full(v) => v.clone(),
            WritePayload::AddI64(d) => Value::from_bytes(&d.to_le_bytes()),
            WritePayload::Mutate => Value::from_bytes(&[]),
        }
    }

    /// Applies the payload to `current` in place, equivalent to
    /// `*current = self.apply(current)` but without reallocating when
    /// `current`'s buffer is uniquely owned (no outstanding read-set
    /// snapshots hold the `Arc`). Delta ops preserve the value's length.
    pub fn apply_in_place(&self, current: &mut Value) {
        match self {
            WritePayload::Full(v) => *current = v.clone(),
            WritePayload::AddI64(_) if current.len() < 8 => *current = self.apply(current),
            WritePayload::AddI64(_) | WritePayload::Mutate => match current.bytes_mut_if_unique() {
                Some(bytes) => self.edit(bytes),
                None => *current = self.apply(current),
            },
        }
    }

    /// A delta's edit of a uniquely owned buffer (at least 8 bytes for
    /// `AddI64`).
    fn edit(&self, bytes: &mut [u8]) {
        match self {
            WritePayload::Full(_) => unreachable!("a full write replaces the value"),
            WritePayload::AddI64(d) => {
                let ctr =
                    i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")).wrapping_add(*d);
                bytes[..8].copy_from_slice(&ctr.to_le_bytes());
            }
            WritePayload::Mutate => {
                if let Some(b) = bytes.first_mut() {
                    *b = b.wrapping_add(1);
                }
            }
        }
    }

    /// Wire/log bytes of the payload (16-byte header + value for full
    /// writes; 20 bytes for a delta).
    pub fn wire_bytes(&self) -> u32 {
        match self {
            WritePayload::Full(v) => 16 + v.len() as u32,
            _ => 20,
        }
    }
}

/// A cluster-wide transaction identifier: coordinator node index plus a
/// per-coordinator sequence number (§4.2 step 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId {
    /// Coordinator node index.
    pub node: u32,
    /// Per-coordinator sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(node: u32, seq: u64) -> Self {
        TxnId { node, seq }
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node, self.seq)
    }
}

/// Lock state for a key, held in SmartNIC memory (§4.1.3). The paper keeps
/// lock state "in only one location (SmartNIC memory)" — primaries own it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LockState {
    /// Unlocked.
    #[default]
    Free,
    /// Write-locked by a transaction.
    Held(TxnId),
}

impl LockState {
    /// True if any transaction holds the lock.
    pub fn is_held(&self) -> bool {
        matches!(self, LockState::Held(_))
    }

    /// True if `txn` specifically holds the lock.
    pub fn held_by(&self, txn: TxnId) -> bool {
        matches!(self, LockState::Held(t) if *t == txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = Value::from_bytes(&[1, 2, 3]);
        assert_eq!(v.bytes(), &[1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn value_filled() {
        let v = Value::filled(12, 0xAB);
        assert_eq!(v.len(), 12);
        assert!(v.bytes().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn value_clone_is_cheap_and_equal() {
        let v = Value::filled(1000, 7);
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.bytes().as_ptr(), w.bytes().as_ptr()));
    }

    #[test]
    fn value_debug_is_compact() {
        let v = Value::filled(100, 1);
        let s = format!("{v:?}");
        assert!(s.contains("100B"));
        assert!(s.len() < 40);
    }

    #[test]
    fn apply_absent_equals_applying_to_an_empty_value() {
        let full = Value::filled(24, 9);
        for p in [
            WritePayload::Full(full.clone()),
            WritePayload::AddI64(-7),
            WritePayload::AddI64(i64::MAX),
            WritePayload::Mutate,
        ] {
            assert_eq!(p.apply_absent(), p.apply(&Value::empty()), "{p:?}");
        }
        let absent = WritePayload::Full(full.clone()).apply_absent();
        assert!(Arc::ptr_eq(&absent.0, &full.0), "Full must not copy");
    }

    /// `WritePayload::apply` as it was before it built values in place: a
    /// `Vec` copy, edited, then moved into a new `Arc`.
    fn apply_via_vec(p: &WritePayload, current: &Value) -> Value {
        match p {
            WritePayload::Full(v) => v.clone(),
            WritePayload::AddI64(d) => {
                let mut bytes = current.bytes().to_vec();
                if bytes.len() < 8 {
                    bytes.resize(8, 0);
                }
                let ctr = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
                    .wrapping_add(*d);
                bytes[..8].copy_from_slice(&ctr.to_le_bytes());
                Value::from_vec(bytes)
            }
            WritePayload::Mutate => {
                let mut bytes = current.bytes().to_vec();
                if let Some(b) = bytes.first_mut() {
                    *b = b.wrapping_add(1);
                }
                Value::from_vec(bytes)
            }
        }
    }

    #[test]
    fn apply_builds_the_same_bytes_in_a_fresh_buffer() {
        let patterned = |len: usize| {
            Value::from_vec((0..len).map(|i| (i as u8).wrapping_mul(37)).collect())
        };
        let cases = [
            (WritePayload::AddI64(-5), Value::empty()),
            (WritePayload::AddI64(i64::MAX), patterned(3)),
            (WritePayload::AddI64(1), patterned(8)),
            (WritePayload::AddI64(-1), patterned(320)),
            (WritePayload::Mutate, Value::empty()),
            (WritePayload::Mutate, patterned(320)),
        ];
        for (p, current) in cases {
            let before = current.bytes().to_vec();
            let mut out = p.apply(&current);
            assert_eq!(out, apply_via_vec(&p, &current), "{p:?} on {current:?}");
            assert_eq!(current.bytes(), &before[..], "{p:?} must not touch current");
            assert!(
                out.bytes_mut_if_unique().is_some(),
                "{p:?} on {current:?}: the result must be uniquely owned"
            );
            let mut in_place = current.clone();
            p.apply_in_place(&mut in_place);
            assert_eq!(in_place, out, "{p:?}: apply_in_place on a shared value");
        }
    }

    #[test]
    fn empty_values_share_one_buffer() {
        let (a, b) = (Value::empty(), Value::empty());
        assert!(a.is_empty());
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn txn_id_ordering_is_node_then_seq() {
        let a = TxnId::new(0, 5);
        let b = TxnId::new(1, 2);
        assert!(a < b);
        assert_eq!(format!("{:?}", TxnId::new(3, 9)), "T3.9");
    }

    #[test]
    fn lock_state_queries() {
        let t = TxnId::new(1, 1);
        let u = TxnId::new(1, 2);
        let l = LockState::Held(t);
        assert!(l.is_held());
        assert!(l.held_by(t));
        assert!(!l.held_by(u));
        assert!(!LockState::Free.is_held());
        assert_eq!(LockState::default(), LockState::Free);
    }
}
