//! Value interning for columnar fact storage.
//!
//! The chase engine stores tuples as flat per-column `u64` id arrays; the
//! [`ValuePool`] is the codec between those packed columns and [`Value`]s.
//!
//! The pool is **two-level** because `Value` equality is coarser than value
//! identity: `Int(1) == Float(1.0)` (with a coherent hash), and the engine's
//! deduplication and joins must respect that equality — but a stored tuple
//! must read back with exactly the representation it was inserted with (a
//! downstream `mod` on what was inserted as an `Int` must not suddenly see a
//! `Float` because some other tuple interned `1.0` first). So:
//!
//! - **exact ids** (`intern`, `get`, `pack`, `unpack`) key on the exact
//!   representation (`ValueType` + payload) and are what the columns store;
//! - **class ids** (`class`, `classes`, `lookup`) identify the `Value`
//!   equality class — the exact id of its first-interned member — and are
//!   what tuple hashes, dedup comparisons and join keys use.
//!
//! With class ids in the dedup path the columnar store rejects duplicates
//! exactly like the row-oriented `FxHashSet<Vec<Value>>` it replaced, while
//! exact ids in the columns preserve first-inserted tuples verbatim.

use crate::error::{KgmError, Result};
use crate::hash::fx_hash_one;
use crate::slots::SlotTable;
use crate::value::Value;

/// Most values one pool can hold: the id tables store 32-bit ids (see
/// [`SlotTable::MAX_IDS`]). Interning a new value beyond it fails with
/// [`KgmError::ResourceExhausted`], like the fact store's `FactId` caps.
pub const MAX_POOL_VALUES: usize = SlotTable::MAX_IDS;

/// Hash of a value's exact representation: the `ValueType` splits the
/// cross-numeric `Int`/`Float` equality class into its exact members.
fn exact_hash(v: &Value) -> u64 {
    fx_hash_one(&(v.value_type(), v))
}

/// Same exact representation (type and payload)?
fn same_exact(a: &Value, b: &Value) -> bool {
    a.value_type() == b.value_type() && a == b
}

/// An append-only `Value` ↔ `u64` id table (see the module docs for the
/// exact-id / class-id split).
///
/// Ids are dense (`0..len`) and never invalidated. A pool is the private
/// property of one fact store — ids from different pools are not comparable.
/// Each value is stored once, in `vals`; the two id indexes are
/// [`SlotTable`]s over it and hold ids only.
#[derive(Debug, Default, Clone)]
pub struct ValuePool {
    vals: Vec<Value>,
    /// Exact id → class id (the exact id of the class's first member).
    class_of: Vec<u64>,
    /// Every exact id, keyed by its value's exact representation.
    exact_ids: SlotTable,
    /// Every class id (each class's first member), keyed by `Value`
    /// equality.
    class_ids: SlotTable,
    /// Indirect heap bytes owned by interned values (string payloads); the
    /// direct `Vec` and slot-table footprint is derived from capacities on
    /// demand.
    str_bytes: usize,
}

impl ValuePool {
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Number of distinct exact values interned.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Intern `v`, returning its exact id. The same representation always
    /// maps to the same id; `Int(1)` and `Float(1.0)` get distinct exact ids
    /// in the same equality class.
    ///
    /// Errors with [`KgmError::ResourceExhausted`] when `v` is new and the
    /// pool already holds [`MAX_POOL_VALUES`] values.
    pub fn intern(&mut self, v: &Value) -> Result<u64> {
        let h = exact_hash(v);
        if let Some(id) = self
            .exact_ids
            .find(h, |id| same_exact(&self.vals[id as usize], v))
        {
            return Ok(id as u64);
        }
        let id = self.vals.len();
        if id >= MAX_POOL_VALUES {
            return Err(KgmError::ResourceExhausted(format!(
                "value pool is full: {id} values exhaust its 32-bit id space"
            )));
        }
        let id = id as u32;
        let ch = fx_hash_one(v);
        let class = match self.class_ids.find(ch, |c| self.vals[c as usize] == *v) {
            Some(c) => c,
            None => {
                self.class_ids.insert(ch, id);
                id
            }
        };
        self.exact_ids.insert(h, id);
        if let Value::Str(s) = v {
            self.str_bytes += s.len();
        }
        self.class_of.push(class as u64);
        self.vals.push(v.clone());
        Ok(id as u64)
    }

    /// The equality-class id of an exact id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this pool.
    #[inline]
    pub fn class(&self, id: u64) -> u64 {
        self.class_of[id as usize]
    }

    /// The full exact-id → class-id table, indexable by exact id. Hot join
    /// and dedup loops take this slice once instead of calling
    /// [`ValuePool::class`] through the pool per element.
    #[inline]
    pub fn classes(&self) -> &[u64] {
        &self.class_of
    }

    /// Read-only probe: the **class id** of `v` if any equal value has ever
    /// been interned. Workers deduplicating against a frozen store and join
    /// probes use this — a miss means no equal value (and hence no tuple
    /// containing one) can be present.
    pub fn lookup(&self, v: &Value) -> Option<u64> {
        self.class_ids
            .find(fx_hash_one(v), |c| self.vals[c as usize] == *v)
            .map(u64::from)
    }

    /// Resolve an exact id back to the value it was interned from.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this pool.
    pub fn get(&self, id: u64) -> &Value {
        &self.vals[id as usize]
    }

    /// Pack a tuple of values into exact ids, appending to `out`. Fails
    /// like [`ValuePool::intern`]; `out` then holds the ids packed so far.
    pub fn pack(&mut self, tuple: &[Value], out: &mut Vec<u64>) -> Result<()> {
        out.reserve(tuple.len());
        for v in tuple {
            out.push(self.intern(v)?);
        }
        Ok(())
    }

    /// Unpack a row of exact ids back into owned values (cheap: `Value`
    /// clones are at most an `Arc` bump).
    pub fn unpack(&self, ids: &[u64]) -> Vec<Value> {
        ids.iter().map(|&id| self.get(id).clone()).collect()
    }

    /// Approximate heap footprint of the pool itself: the value table, the
    /// class table, both slot tables, and string payloads. Each `Arc<str>`
    /// payload is counted once; `vals` holds the only `Value` copy.
    pub fn approx_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Value>()
            + self.class_of.capacity() * std::mem::size_of::<u64>()
            + self.exact_ids.approx_bytes()
            + self.class_ids.approx_bytes()
            + self.str_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    #[test]
    fn equal_values_share_a_class_but_keep_exact_representations() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(1)).unwrap();
        let b = pool.intern(&Value::Float(1.0)).unwrap();
        assert_ne!(a, b, "distinct representations get distinct exact ids");
        assert_eq!(pool.class(a), pool.class(b), "but share one class");
        assert_eq!(pool.class(a), a, "the first member names the class");
        assert_eq!(pool.get(a), &Value::Int(1));
        assert_eq!(pool.get(b).value_type(), ValueType::Float, "exact ids resolve verbatim");
        assert_eq!(pool.len(), 2);

        let c = pool.intern(&Value::Float(2.5)).unwrap();
        assert_ne!(pool.class(a), pool.class(c));
        assert_eq!(pool.get(c), &Value::Float(2.5));
    }

    #[test]
    fn reinterning_is_stable() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(7)).unwrap();
        let b = pool.intern(&Value::Float(7.0)).unwrap();
        assert_eq!(pool.intern(&Value::Int(7)).unwrap(), a);
        assert_eq!(pool.intern(&Value::Float(7.0)).unwrap(), b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pack_unpack_round_trips_exactly() {
        let mut pool = ValuePool::new();
        let tuple = vec![
            Value::str("alpha"),
            Value::Int(7),
            Value::Float(7.0),
            Value::str("alpha"),
        ];
        let mut ids = Vec::new();
        pool.pack(&tuple, &mut ids).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ids[3], "repeated values reuse the exact id");
        assert_ne!(ids[1], ids[2], "Int(7) and Float(7.0) stay distinct");
        let back = pool.unpack(&ids);
        assert_eq!(back, tuple);
        for (v, b) in tuple.iter().zip(&back) {
            assert_eq!(v.value_type(), b.value_type(), "bitwise fidelity");
        }
    }

    #[test]
    fn lookup_is_read_only_and_class_keyed() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(3)).unwrap();
        assert_eq!(pool.lookup(&Value::Float(3.0)), Some(pool.class(a)));
        assert_eq!(pool.lookup(&Value::Int(4)), None);
        assert_eq!(pool.len(), 1, "lookup must not intern");
    }

    #[test]
    fn classes_slice_mirrors_class() {
        let mut pool = ValuePool::new();
        for v in [Value::Int(1), Value::Float(1.0), Value::str("x")] {
            pool.intern(&v).unwrap();
        }
        let classes = pool.classes();
        assert_eq!(classes.len(), pool.len());
        for id in 0..pool.len() as u64 {
            assert_eq!(classes[id as usize], pool.class(id));
        }
    }

    #[test]
    fn approx_bytes_grows_with_contents() {
        let mut pool = ValuePool::new();
        let empty = pool.approx_bytes();
        for i in 0..1000 {
            pool.intern(&Value::str(format!("company-{i}"))).unwrap();
        }
        let full = pool.approx_bytes();
        assert!(full > empty + 1000 * 10, "{empty} -> {full}");
    }

    #[test]
    fn many_values_keep_their_ids_and_classes() {
        // Enough values for several slot-table growths, with every integer
        // also interned as an equal float.
        let mut pool = ValuePool::new();
        for i in 0..5_000i64 {
            assert_eq!(pool.intern(&Value::Int(i)).unwrap(), 2 * i as u64);
            assert_eq!(
                pool.intern(&Value::Float(i as f64)).unwrap(),
                2 * i as u64 + 1
            );
        }
        for i in 0..5_000i64 {
            let id = 2 * i as u64;
            assert_eq!(pool.intern(&Value::Int(i)).unwrap(), id);
            assert_eq!(pool.intern(&Value::Float(i as f64)).unwrap(), id + 1);
            assert_eq!(pool.class(id + 1), id);
            assert_eq!(pool.lookup(&Value::Float(i as f64)), Some(id));
        }
        assert_eq!(pool.len(), 10_000);
        assert_eq!(pool.lookup(&Value::Float(0.5)), None);
    }
}
