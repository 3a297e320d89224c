//! Object identifiers for every construct and instance in the KGModel stack.
//!
//! Section 3.1: *"Each meta-construct is identified by a unique internal
//! Object Identifier (OID)."* The same holds one level down for
//! super-constructs, model constructs, schema elements and instance
//! elements. Reasoning additionally introduces *labelled nulls* (the set
//! `N` of Section 4) and *linker Skolem values* (the set `I`), which the
//! paper requires to be disjoint from constants and from each other.
//!
//! We realize the disjointness by tagging the two most significant bits of a
//! 64-bit identifier with an [`OidSpace`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The identifier space an [`Oid`] belongs to.
///
/// The paper's three disjoint symbol pools: ground constants/objects (`C`),
/// labelled nulls (`N`), and linker-Skolem values (`I`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OidSpace {
    /// Ground objects loaded from or created in a store.
    Ground,
    /// Fresh labelled nulls invented by the chase for existential variables.
    Null,
    /// Values minted by injective, range-disjoint linker Skolem functors.
    Skolem,
}

const SPACE_SHIFT: u32 = 62;
const PAYLOAD_MASK: u64 = (1 << SPACE_SHIFT) - 1;

/// A 64-bit object identifier: 2 tag bits for the [`OidSpace`], 62 payload bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(u64);

impl Oid {
    /// Construct an OID from a space tag and payload.
    ///
    /// # Panics
    /// Panics if `payload` does not fit in 62 bits.
    pub fn new(space: OidSpace, payload: u64) -> Self {
        assert!(payload <= PAYLOAD_MASK, "OID payload overflow");
        let tag = match space {
            OidSpace::Ground => 0u64,
            OidSpace::Null => 1,
            OidSpace::Skolem => 2,
        };
        Oid((tag << SPACE_SHIFT) | payload)
    }

    /// Ground-space OID with the given payload.
    pub fn ground(payload: u64) -> Self {
        Oid::new(OidSpace::Ground, payload)
    }

    /// The space this OID belongs to.
    pub fn space(self) -> OidSpace {
        match self.0 >> SPACE_SHIFT {
            0 => OidSpace::Ground,
            1 => OidSpace::Null,
            2 => OidSpace::Skolem,
            _ => unreachable!("reserved OID space tag"),
        }
    }

    /// The 62-bit payload.
    pub fn payload(self) -> u64 {
        self.0 & PAYLOAD_MASK
    }

    /// Raw 64-bit representation (tag + payload), useful as a map key.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild from [`Oid::raw`].
    pub fn from_raw(raw: u64) -> Self {
        let oid = Oid(raw);
        // Force validation of the tag.
        let _ = oid.space();
        oid
    }

    /// True if this OID denotes a labelled null (an "unknown" object).
    pub fn is_null(self) -> bool {
        self.space() == OidSpace::Null
    }

    /// Compact ASCII encoding: a space letter (`G`/`N`/`K`) followed by the
    /// decimal payload, e.g. `G7`, `N12`, `K3`.
    pub fn to_text(self) -> String {
        let tag = match self.space() {
            OidSpace::Ground => 'G',
            OidSpace::Null => 'N',
            OidSpace::Skolem => 'K',
        };
        format!("{tag}{}", self.payload())
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.space() {
            OidSpace::Ground => write!(f, "#{}", self.payload()),
            OidSpace::Null => write!(f, "ν{}", self.payload()),
            OidSpace::Skolem => write!(f, "σ{}", self.payload()),
        }
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A thread-safe monotone OID generator for one [`OidSpace`].
#[derive(Debug)]
pub struct OidGen {
    space: OidSpace,
    next: AtomicU64,
}

impl OidGen {
    /// A generator starting at payload 1 (0 is reserved for "anonymous").
    pub fn new(space: OidSpace) -> Self {
        OidGen {
            space,
            next: AtomicU64::new(1),
        }
    }

    /// A generator that continues a previous one: the next [`fresh`] call
    /// mints payload `minted + 1`, where `minted` is the prior generator's
    /// [`count`]. Resuming an incremental chase must not re-mint payloads
    /// already embedded in stored facts.
    ///
    /// [`fresh`]: OidGen::fresh
    /// [`count`]: OidGen::count
    pub fn resume(space: OidSpace, minted: u64) -> Self {
        OidGen {
            space,
            next: AtomicU64::new(minted + 1),
        }
    }

    /// Mint the next OID.
    pub fn fresh(&self) -> Oid {
        let payload = self.next.fetch_add(1, Ordering::Relaxed);
        Oid::new(self.space, payload)
    }

    /// Number of OIDs minted so far.
    pub fn count(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - 1
    }
}

impl Default for OidGen {
    fn default() -> Self {
        OidGen::new(OidSpace::Ground)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_are_disjoint() {
        let g = Oid::new(OidSpace::Ground, 7);
        let n = Oid::new(OidSpace::Null, 7);
        let s = Oid::new(OidSpace::Skolem, 7);
        assert_ne!(g, n);
        assert_ne!(n, s);
        assert_ne!(g, s);
        assert_eq!(g.payload(), 7);
        assert_eq!(n.payload(), 7);
        assert_eq!(s.payload(), 7);
    }

    #[test]
    fn space_round_trips() {
        for space in [OidSpace::Ground, OidSpace::Null, OidSpace::Skolem] {
            let o = Oid::new(space, 123456);
            assert_eq!(o.space(), space);
            assert_eq!(Oid::from_raw(o.raw()), o);
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn payload_overflow_panics() {
        let _ = Oid::new(OidSpace::Ground, u64::MAX);
    }

    #[test]
    fn generator_is_monotone_and_counts() {
        let g = OidGen::new(OidSpace::Null);
        let a = g.fresh();
        let b = g.fresh();
        assert!(a.payload() < b.payload());
        assert!(a.is_null());
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn resumed_generator_never_remints_prior_payloads() {
        let g = OidGen::new(OidSpace::Null);
        let a = g.fresh();
        let b = g.fresh();
        let resumed = OidGen::resume(OidSpace::Null, g.count());
        assert_eq!(resumed.count(), g.count());
        let c = resumed.fresh();
        assert!(c.payload() > a.payload() && c.payload() > b.payload());
        assert_eq!(resumed.count(), 3);
    }

    #[test]
    fn debug_formats_by_space() {
        assert_eq!(format!("{:?}", Oid::ground(3)), "#3");
        assert_eq!(format!("{:?}", Oid::new(OidSpace::Null, 3)), "ν3");
        assert_eq!(format!("{:?}", Oid::new(OidSpace::Skolem, 3)), "σ3");
    }

    #[test]
    fn text_codec_distinguishes_every_space() {
        // Equal payloads in different spaces must get distinct text.
        let mut texts = std::collections::BTreeSet::new();
        for space in [OidSpace::Ground, OidSpace::Null, OidSpace::Skolem] {
            for payload in [0u64, 1, 42, PAYLOAD_MASK] {
                let text = Oid::new(space, payload).to_text();
                assert!(text.is_ascii() && !text.contains('|'), "{text:?}");
                assert!(texts.insert(text));
            }
        }
        assert_eq!(Oid::ground(7).to_text(), "G7");
    }

    #[test]
    fn generator_is_thread_safe() {
        let g = std::sync::Arc::new(OidGen::new(OidSpace::Ground));
        let mut handles = vec![];
        for _ in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.fresh().payload()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "OIDs must be globally unique");
    }
}
