//! # kgm-common
//!
//! Shared foundations for the KGModel workspace: object identifiers, typed
//! values, deterministic (linker) Skolem functors, a fast non-cryptographic
//! hasher, a string interner, the value pool with its open-addressing id
//! tables, and the segment arena that packs many growable lists into one
//! allocation.
//!
//! Every construct in the KGModel representation stack — meta-constructs,
//! super-constructs, model constructs, and their instances — is identified by
//! a unique internal Object Identifier ([`Oid`]), exactly as prescribed in
//! Section 3.1 of the paper. Derived objects produced by reasoning carry
//! either fresh *labelled nulls* or values minted by *linker Skolem functors*
//! (Section 4), both of which live in identifier spaces disjoint from ground
//! OIDs.

pub mod codec;
pub mod error;
pub mod hash;
pub mod interner;
pub mod oid;
pub mod pool;
pub mod segments;
pub mod skolem;
pub mod slots;
pub mod value;

pub use error::{KgmError, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, Symbol};
pub use pool::ValuePool;
pub use oid::{Oid, OidGen, OidSpace};
pub use segments::SegmentArena;
pub use skolem::{SkolemFunctor, SkolemRegistry};
pub use slots::SlotTable;
pub use value::{Value, ValueType};
