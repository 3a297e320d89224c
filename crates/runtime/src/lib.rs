//! `kgm-runtime` — the hermetic runtime layer of the KGModel workspace.
//!
//! Every capability the workspace previously pulled from external crates
//! lives here, implemented on the standard library alone so the whole
//! workspace builds offline from an empty cargo registry:
//!
//! | module | replaces | provides |
//! |--------|----------|----------|
//! | [`rng`]   | `rand`        | seedable xoshiro256** PRNG, `gen_range`, `shuffle`, `sample` |
//! | [`sync`]  | `parking_lot` | non-poisoning `Mutex` / `RwLock` over `std::sync` |
//! | [`par`]   | `crossbeam`   | scope-based parallel map (`std::thread::scope`) |
//! | [`prop`]  | `proptest`    | seeded property tests with shrinking, `prop_assert!` |
//! | [`snapshot`] | `insta` | golden-file assertions with a `KGM_BLESS=1` bless workflow |
//! | [`telemetry`] | `tracing` + `metrics` | hierarchical spans, counters/histograms, console + JSONL sinks |
//! | [`json`]  | `serde_json` (validation only) | JSON/JSONL well-formedness checks for emitted artefacts |
//! | [`fault`] | — | deterministic fault injection (`KGM_FAULT=<site>:<prob>:<seed>`), off by default |
//!
//! (Two removed dependencies need no stand-in. Nothing deserializes, so
//! `serde` has none: `kgm-common`'s `Value::to_text` is the one stable text
//! form. `criterion` has none either: `kgm-bench`'s `kgbench` binary is the
//! benchmark, and `paper-harness gates` times CI's three ratio gates.)
//!
//! Everything is deterministic by construction: the PRNG is seeded
//! explicitly, property-test cases derive from a reported seed, and
//! parallel sharding preserves input order.

pub mod env;
pub mod fault;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;
pub mod snapshot;
pub mod sync;
pub mod telemetry;

pub use par::{default_threads, map_shards, par_map};
pub use rng::{split_mix64, Rng, SampleUniform};
pub use sync::{CancelToken, Mutex, Published, RwLock};
pub use telemetry::{Collector, MetricsSnapshot, SpanGuard, SpanNode, Verbosity};
