//! Value cells for columnar fact storage.
//!
//! The chase engine stores tuples as flat per-column `u64` arrays of
//! *cells*; the [`ValuePool`] is the codec between cells and [`Value`]s,
//! and this module is the only code that builds or reads a cell's bits. A
//! cell is one of two kinds:
//!
//! - an **OID cell** holds an [`Oid`] itself, as `oid.raw() + 2^32`. An
//!   OID's 64 bits already are its identity, so interning, resolving and
//!   classing one never touches the pool's tables. Algorithm 2's load
//!   mints an OID per instance construct and per link, so most values a
//!   chase stores are OIDs, and each costs its cell and nothing else.
//! - a **pool id**, below `2^32`, for every other value. Pool ids never
//!   reach `2^32` ([`MAX_POOL_VALUES`]), so the two kinds never collide;
//!   an OID's space tag is at most 2 (3 is reserved), so `raw + 2^32`
//!   never overflows.
//!
//! Pooled values are interned **two-level** because `Value` equality is
//! coarser than value identity: `Int(1) == Float(1.0)` (with a coherent
//! hash), and the engine's deduplication and joins must respect that
//! equality — but a stored tuple must read back with exactly the
//! representation it was inserted with (a downstream `mod` on what was
//! inserted as an `Int` must not suddenly see a `Float` because some other
//! tuple interned `1.0` first). So:
//!
//! - **exact cells** (`intern`, `get`) key on the exact representation
//!   (`ValueType` + payload) and are what the columns store;
//! - **class cells** (`class`, `classes`, `lookup`) identify the `Value`
//!   equality class — for a pooled value the exact id of its class's
//!   first-interned member, for an OID its own cell, since an OID equals
//!   only itself — and are what tuple hashes, dedup comparisons and join
//!   keys use.
//!
//! With class cells in the dedup path the columnar store rejects duplicates
//! exactly like the row-oriented `FxHashSet<Vec<Value>>` it replaced, while
//! exact cells in the columns preserve first-inserted tuples verbatim.

use crate::error::{KgmError, Result};
use crate::hash::fx_hash_one;
use crate::oid::Oid;
use crate::slots::SlotTable;
use crate::value::Value;

/// Most values one pool can hold: the id tables store 32-bit ids (see
/// [`SlotTable::MAX_IDS`]). Interning a new value beyond it fails with
/// [`KgmError::ResourceExhausted`], like the fact store's `FactId` caps.
/// OIDs are not pooled and do not count.
pub const MAX_POOL_VALUES: usize = SlotTable::MAX_IDS;

/// The first OID cell: pool ids stay below it.
const OID_BASE: u64 = 1 << 32;

const _: () = assert!(MAX_POOL_VALUES as u64 <= OID_BASE);

/// The cell holding `oid`.
#[inline]
fn oid_cell(oid: Oid) -> u64 {
    oid.raw() + OID_BASE
}

/// The OID an OID cell holds; `None` for a pool id.
#[inline]
fn cell_oid(cell: u64) -> Option<Oid> {
    (cell >= OID_BASE).then(|| Oid::from_raw(cell - OID_BASE))
}

/// Hash of a value's exact representation: the `ValueType` splits the
/// cross-numeric `Int`/`Float` equality class into its exact members.
fn exact_hash(v: &Value) -> u64 {
    fx_hash_one(&(v.value_type(), v))
}

/// Same exact representation (type and payload)?
fn same_exact(a: &Value, b: &Value) -> bool {
    a.value_type() == b.value_type() && a == b
}

/// An append-only `Value` ↔ `u64` cell codec (see the module docs for the
/// cell kinds and the exact / class split).
///
/// Pool ids are dense (`0..len`) and never invalidated. A pool is the
/// private property of one owner — pool ids from different pools are not
/// comparable, though OID cells are. Each pooled value is stored once, in
/// `vals`; the two id indexes are [`SlotTable`]s over it and hold ids only.
#[derive(Debug, Default, Clone)]
pub struct ValuePool {
    vals: Vec<Value>,
    /// Pool id → class id (the pool id of the class's first member).
    class_of: Vec<u32>,
    /// Every pool id, keyed by its value's exact representation.
    exact_ids: SlotTable,
    /// Every class id (each class's first member), keyed by `Value`
    /// equality.
    class_ids: SlotTable,
    /// Indirect heap bytes owned by interned values (string payloads); the
    /// direct `Vec` and slot-table footprint is derived from capacities on
    /// demand.
    str_bytes: usize,
}

/// A read-only, `Copy` view of a pool's exact cell → class cell map. Hot
/// join and dedup loops take it once instead of calling
/// [`ValuePool::class`] through the pool per element.
#[derive(Debug, Clone, Copy)]
pub struct Classes<'a>(&'a [u32]);

impl Classes<'_> {
    /// The class cell of `cell`, as [`ValuePool::class`].
    #[inline]
    pub fn of(self, cell: u64) -> u64 {
        if cell < OID_BASE {
            u64::from(self.0[cell as usize])
        } else {
            cell
        }
    }
}

impl ValuePool {
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Number of distinct exact values pooled (OIDs are not).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Intern `v`, returning its exact cell. The same representation always
    /// maps to the same cell; `Int(1)` and `Float(1.0)` get distinct exact
    /// cells in the same equality class. An OID gets its own cell without
    /// touching the pool.
    ///
    /// Errors with [`KgmError::ResourceExhausted`] when `v` is a new pooled
    /// value and the pool already holds [`MAX_POOL_VALUES`] values.
    pub fn intern(&mut self, v: &Value) -> Result<u64> {
        if let Value::Oid(o) = v {
            return Ok(oid_cell(*o));
        }
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
        self.class_of.push(class);
        self.vals.push(v.clone());
        Ok(id as u64)
    }

    /// The equality-class cell of an exact cell; an OID cell is its own
    /// class.
    ///
    /// # Panics
    /// Panics if `cell` is a pool id this pool did not produce.
    #[inline]
    pub fn class(&self, cell: u64) -> u64 {
        self.classes().of(cell)
    }

    /// The exact cell → class cell map as a `Copy` view (see [`Classes`]).
    #[inline]
    pub fn classes(&self) -> Classes<'_> {
        Classes(&self.class_of)
    }

    /// Read-only probe: the **class cell** of `v` if any equal value has
    /// ever been interned, and always the cell of an OID. Workers
    /// deduplicating against a frozen store and join probes use this — a
    /// miss means no equal value (and hence no tuple containing one) can be
    /// present. An OID never misses, so its absence shows only in the
    /// probe that follows.
    pub fn lookup(&self, v: &Value) -> Option<u64> {
        if let Value::Oid(o) = v {
            return Some(oid_cell(*o));
        }
        self.class_ids
            .find(fx_hash_one(v), |c| self.vals[c as usize] == *v)
            .map(u64::from)
    }

    /// Resolve an exact cell back to the value it was interned from (cheap:
    /// a `Value` clone is at most an `Arc` bump).
    ///
    /// # Panics
    /// Panics if `cell` is a pool id this pool did not produce.
    pub fn get(&self, cell: u64) -> Value {
        match cell_oid(cell) {
            Some(o) => Value::Oid(o),
            None => self.vals[cell as usize].clone(),
        }
    }

    /// Approximate heap footprint of the pool itself: the value table, the
    /// class table, both slot tables, and string payloads. Each `Arc<str>`
    /// payload is counted once; `vals` holds the only `Value` copy. OIDs
    /// cost the pool nothing.
    pub fn approx_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Value>()
            + self.class_of.capacity() * std::mem::size_of::<u32>()
            + self.exact_ids.approx_bytes()
            + self.class_ids.approx_bytes()
            + self.str_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OidSpace;
    use crate::value::ValueType;

    #[test]
    fn equal_values_share_a_class_but_keep_exact_representations() {
        let mut pool = ValuePool::new();
        let a = pool.intern(&Value::Int(1)).unwrap();
        let b = pool.intern(&Value::Float(1.0)).unwrap();
        assert_ne!(a, b, "distinct representations get distinct exact ids");
        assert_eq!(pool.class(a), pool.class(b), "but share one class");
        assert_eq!(pool.class(a), a, "the first member names the class");
        assert_eq!(pool.get(a), Value::Int(1));
        assert_eq!(pool.get(b).value_type(), ValueType::Float, "exact ids resolve verbatim");
        assert_eq!(pool.len(), 2);

        let c = pool.intern(&Value::Float(2.5)).unwrap();
        assert_ne!(pool.class(a), pool.class(c));
        assert_eq!(pool.get(c), Value::Float(2.5));

        let alpha = pool.intern(&Value::str("alpha")).unwrap();
        let seven = pool.intern(&Value::Int(7)).unwrap();
        let seven_f = pool.intern(&Value::Float(7.0)).unwrap();
        assert_eq!(pool.intern(&Value::str("alpha")).unwrap(), alpha, "a repeat reuses its id");
        assert_ne!(seven, seven_f, "Int(7) and Float(7.0) stay distinct");
        let exact = [
            (alpha, Value::str("alpha")),
            (seven, Value::Int(7)),
            (seven_f, Value::Float(7.0)),
        ];
        for (id, v) in exact {
            let back = pool.get(id);
            assert_eq!(back, v);
            assert_eq!(back.value_type(), v.value_type(), "bitwise fidelity");
        }
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
    fn oids_are_their_own_cells_and_never_pooled() {
        let mut pool = ValuePool::new();
        let mut cells = Vec::new();
        for space in [OidSpace::Ground, OidSpace::Null, OidSpace::Skolem] {
            for payload in [0, (1 << 62) - 1] {
                let v = Value::Oid(Oid::new(space, payload));
                let cell = pool.intern(&v).unwrap();
                assert_eq!(pool.get(cell), v, "{v:?}");
                assert_eq!(pool.class(cell), cell, "an OID is its own class");
                assert_eq!(pool.lookup(&v), Some(cell));
                assert_eq!(pool.intern(&v).unwrap(), cell);
                cells.push(cell);
            }
        }
        assert_eq!(pool.len(), 0, "OIDs never enter the pool");
        let int = pool.intern(&Value::Int(1)).unwrap();
        let float = pool.intern(&Value::Float(1.0)).unwrap();
        assert_eq!(pool.class(int), pool.class(float));
        assert_eq!(pool.lookup(&Value::Float(1.0)), Some(int));
        assert_eq!(pool.len(), 2);
        let mut distinct = cells.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), cells.len(), "spaces and payloads stay apart");
        for cell in cells {
            assert!(cell != int && cell != float && cell >= MAX_POOL_VALUES as u64);
            assert_eq!(pool.classes().of(cell), cell);
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
    fn classes_view_mirrors_class() {
        let mut pool = ValuePool::new();
        let mut cells = Vec::new();
        let vals = [
            Value::Int(1),
            Value::Float(1.0),
            Value::str("x"),
            Value::Oid(Oid::ground(1)),
        ];
        for v in vals {
            cells.push(pool.intern(&v).unwrap());
        }
        let classes = pool.classes();
        for cell in cells {
            assert_eq!(classes.of(cell), pool.class(cell));
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
