//! Linker Skolem functors (paper Section 4, "Linker Skolem Functors").
//!
//! A MetaLog rule may bind an existential variable to `∃ k = sk(v̄)` where
//! `sk` is a *linker Skolem functor* applied to a tuple of universally
//! quantified variables. The paper requires functors to be
//!
//! 1. **deterministic** — the same functor on the same arguments always
//!    yields the same value (so independent rules can *link up* on shared
//!    derived objects, e.g. the `I_M_Property` of Example 6.1);
//! 2. **injective** — distinct argument tuples yield distinct values;
//! 3. **range disjoint** — the images of distinct functors never overlap,
//!    and all of them are disjoint from constants and labelled nulls.
//!
//! [`SkolemRegistry`] realizes this with a table from
//! `(functor, argument-tuple)` to a fresh OID in [`OidSpace::Skolem`]:
//! determinism and injectivity hold by table lookup, range disjointness holds
//! because the functor id is part of the key and payloads are globally
//! sequential.

use crate::hash::FxHashMap;
use crate::oid::{Oid, OidSpace};
use crate::value::Value;
use kgm_runtime::sync::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named Skolem functor handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemFunctor(u32);

impl SkolemFunctor {
    /// Raw functor index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SkolemFunctor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sk{}", self.0)
    }
}

#[derive(Default)]
struct Tables {
    by_name: FxHashMap<String, SkolemFunctor>,
    names: Vec<String>,
    values: FxHashMap<(SkolemFunctor, Vec<Value>), Oid>,
}

/// The process-wide table realizing injective, deterministic, range-disjoint
/// Skolem functors.
pub struct SkolemRegistry {
    tables: Mutex<Tables>,
    next_payload: AtomicU64,
}

impl Default for SkolemRegistry {
    fn default() -> Self {
        SkolemRegistry::new()
    }
}

impl SkolemRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        SkolemRegistry {
            tables: Mutex::new(Tables::default()),
            next_payload: AtomicU64::new(1),
        }
    }

    /// Declare (or look up) the functor named `name`.
    pub fn functor(&self, name: &str) -> SkolemFunctor {
        let mut t = self.tables.lock();
        if let Some(&f) = t.by_name.get(name) {
            return f;
        }
        let f = SkolemFunctor(u32::try_from(t.names.len()).expect("too many functors"));
        t.names.push(name.to_string());
        t.by_name.insert(name.to_string(), f);
        f
    }

    /// Resolve a functor back to its declared name.
    pub fn name(&self, f: SkolemFunctor) -> String {
        self.tables.lock().names[f.0 as usize].clone()
    }

    /// Apply `functor` to `args`, returning the (stable) Skolem OID.
    pub fn apply(&self, functor: SkolemFunctor, args: &[Value]) -> Oid {
        let mut t = self.tables.lock();
        if let Some(&oid) = t.values.get(&(functor, args.to_vec())) {
            return oid;
        }
        let payload = self.next_payload.fetch_add(1, Ordering::Relaxed);
        let oid = Oid::new(OidSpace::Skolem, payload);
        t.values.insert((functor, args.to_vec()), oid);
        oid
    }

    /// Number of distinct Skolem values minted so far.
    pub fn minted(&self) -> u64 {
        self.next_payload.load(Ordering::Relaxed) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_on_same_arguments() {
        let r = SkolemRegistry::new();
        let sk = r.functor("skN");
        let a = r.apply(sk, &[Value::Int(1), Value::str("x")]);
        let b = r.apply(sk, &[Value::Int(1), Value::str("x")]);
        assert_eq!(a, b);
        assert_eq!(r.minted(), 1);
    }

    #[test]
    fn injective_on_distinct_arguments() {
        let r = SkolemRegistry::new();
        let sk = r.functor("skN");
        let a = r.apply(sk, &[Value::Int(1)]);
        let b = r.apply(sk, &[Value::Int(2)]);
        assert_ne!(a, b);
    }

    #[test]
    fn ranges_of_distinct_functors_are_disjoint() {
        let r = SkolemRegistry::new();
        let f = r.functor("skA");
        let g = r.functor("skB");
        let a = r.apply(f, &[Value::Int(1)]);
        let b = r.apply(g, &[Value::Int(1)]);
        assert_ne!(a, b, "images of distinct functors must not overlap");
    }

    #[test]
    fn values_live_in_skolem_space() {
        let r = SkolemRegistry::new();
        let f = r.functor("sk");
        let v = r.apply(f, &[]);
        assert_eq!(v.space(), OidSpace::Skolem);
    }

    #[test]
    fn functor_names_round_trip() {
        let r = SkolemRegistry::new();
        let f = r.functor("skFR");
        assert_eq!(r.functor("skFR"), f);
        assert_eq!(r.name(f), "skFR");
    }

    #[test]
    fn arity_participates_in_identity() {
        let r = SkolemRegistry::new();
        let f = r.functor("sk");
        // sk() vs sk(unit-ish) must differ.
        let a = r.apply(f, &[]);
        let b = r.apply(f, &[Value::Int(0)]);
        assert_ne!(a, b);
    }
}
