//! # kgm-core
//!
//! The **KGModel framework** itself — the paper's primary contribution:
//!
//! - [`metamodel`] — the meta-model of Figure 2 (`MM_Entity`, `MM_Link`,
//!   `MM_Property`) and its dictionary graph;
//! - [`supermodel`] — the super-model of Figure 3: typed super-constructs
//!   (`SM_Node`, `SM_Edge`, `SM_Attribute`, `SM_Type`,
//!   `SM_Generalization`, attribute modifiers) and the [`supermodel::SuperSchema`]
//!   builder with full structural validation;
//! - [`gsl`] — the Graph Schema Language: a textual syntax for GSL design
//!   diagrams (the visual language of Section 3) with a parser producing
//!   super-schemas;
//! - [`render`] — the rendering functions Γ_MM and Γ_SM as deterministic
//!   Graphviz DOT emitters using the grapheme vocabulary of Figure 3;
//! - [`dictionary`] — graph dictionaries: serializing super-schemas into
//!   `kgm-pgstore` graphs and back, next to the instance level's relations;
//! - [`models`] — the model level (Section 5): the PG model (Figure 5), the
//!   relational model (Figure 7), the RDF vocabulary model, and CSV
//!   serialization;
//! - [`sst`] — the SSST tool (Algorithm 1): super-schema → schema
//!   translation with selectable implementation strategies, in both the
//!   paper-faithful MetaLog-driven form and a native Rust baseline;
//! - [`instances`] — instance-level super-constructs `I_SM_*` (Figure 9)
//!   as relation rows, and instance loading / flushing with the
//!   quasi-inverse mappings of Section 6;
//! - [`intensional`] — Algorithm 2: materialization of intensional
//!   components via automatically generated input/output views;
//! - [`enforce`] — schema enforcement artefacts per target system: SQL DDL,
//!   PG constraint commands, RDF-S documents.

//! ```
//! use kgm_core::{parse_gsl, to_gsl};
//! use kgm_core::sst::{translate_to_pg, PgGeneralizationStrategy};
//!
//! let schema = parse_gsl(r#"
//!     schema Demo {
//!       node Person { id code: string; }
//!       node Business { capital: float; }
//!       generalization Person -> Business;
//!       intensional edge CONTROLS: Person -> Business;
//!     }
//! "#).unwrap();
//! let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
//! let business = pg.node_type("Business").unwrap();
//! assert_eq!(business.labels, vec!["Business", "Person"]);
//! assert!(parse_gsl(&to_gsl(&schema)).is_ok());
//! ```

pub mod dictionary;
pub mod enforce;
pub mod gsl;
pub mod instances;
pub mod intensional;
pub mod metamodel;
pub mod models;
pub mod render;
pub mod sst;
pub mod sst_metalog;
pub mod sst_metalog_rel;
pub mod supermodel;

pub use gsl::{parse_gsl, to_gsl};
pub use supermodel::{
    Cardinality, Modifier, SmAttribute, SmEdge, SmGeneralization, SmNode, SuperSchema,
};
