//! # kgm-vadalog
//!
//! A **Warded Datalog± reasoner** — the KGModel stand-in for the Vadalog
//! System (Bellomarini et al., PVLDB 2018), which the paper uses to execute
//! every translated MetaLog program.
//!
//! The engine implements the fragment the paper relies on (Section 4):
//!
//! - existential rules `φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)` evaluated by a deterministic
//!   **Skolem chase**: each existential variable is realized as a labelled
//!   null minted by an implicit per-rule Skolem functor over the frontier,
//!   so re-firing a rule on the same ground part reuses the same null and
//!   the chase terminates on warded programs;
//! - **linker Skolem functors** (`skolem("skN", x̄)` expressions) with the
//!   paper's injectivity / determinism / range-disjointness guarantees;
//! - **stratified negation** and **stratified (exact) aggregation**, plus
//!   Vadalog-style **monotonic aggregation** (`msum` & friends) inside
//!   recursion — the construct behind the company-control rule of
//!   Example 4.2;
//! - static **program analysis**: predicate dependency graph, stratification,
//!   the wardedness check that keeps reasoning PTIME, and the
//!   piecewise-linearity check used by the MetaLog tractability rule;
//! - `@input` / `@output` **source bindings** against the `kgm-pgstore` and
//!   `kgm-relstore` substrates, mirroring the annotation mechanism of
//!   Example 4.4;
//! - semi-naive fixpoint evaluation with lazily built hash join indexes.
//!
//! ```
//! use kgm_vadalog::{parse_program, Engine, FactDb};
//! use kgm_common::Value;
//!
//! let program = parse_program(
//!     "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
//! ).unwrap();
//! let engine = Engine::new(program).unwrap();
//! let mut db = FactDb::new();
//! db.add_facts("edge", vec![
//!     vec![Value::Int(1), Value::Int(2)],
//!     vec![Value::Int(2), Value::Int(3)],
//! ]).unwrap();
//! engine.run(&mut db).unwrap();
//! assert!(db.contains("path", &[Value::Int(1), Value::Int(3)]));
//! ```

pub mod analysis;
pub mod ast;
pub mod bindings;
mod chase_state;
pub mod engine;
pub mod eval;
pub mod explain;
pub mod factdb;
pub mod genprog;
pub mod oracle;
pub mod parser;
pub mod printer;
pub mod serving;

pub use analysis::{ProgramAnalysis, Stratification};
pub use ast::{Aggregate, AggregateFunc, Atom, Expr, Program, Rule, RuleStep, Term, Var};
pub use bindings::{InputBinding, InputSource, OutputBinding, SourceRegistry};
pub use engine::{
    ChaseProfile, Engine, EngineConfig, FactDb, RuleProfile, RunStats, StratumProfile, Termination,
    Update,
};
pub use explain::{explain, render, DerivationTree};
pub use factdb::{FactId, ProvStore};
pub use genprog::{GenCase, GenConfig, UpdateBatch};
pub use oracle::{
    canonical_diff, canonical_diff_oracle, canonical_fact_lines, canonical_facts,
    canonical_facts_rows, isomorphic, naive_chase, naive_chase_prov, naive_chase_updated,
    OracleConfig, RowDb,
};
pub use parser::parse_program;
pub use printer::{rule_to_source, to_source};
pub use serving::{EpochPin, EpochSnapshot, QueryResponse, ServingLayer};
