//! Golden snapshots of the SSST (super-schema → target-schema) translation
//! for all three target models of the paper: property graph (§5.2),
//! relational (§5.3), and RDFS (§5.4). The input is the running example of
//! Section 5 — persons, businesses, shares, places — with both
//! generalization strategies per model where the paper offers a choice.
//!
//! Re-bless after an intentional change with
//! `KGM_BLESS=1 cargo test -p kgm-core`. CI runs `KGM_GOLDEN_FROZEN=1`.

use kgm_core::models::pg::PgModelSchema;
use kgm_core::models::rdf::to_rdfs;
use kgm_core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgm_core::{parse_gsl, SuperSchema};
use kgm_runtime::snapshot::assert_snapshot;

fn golden(name: &str) -> String {
    format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"))
}

/// The Section 5 running example (same schema as the in-crate sst tests).
fn sample() -> SuperSchema {
    parse_gsl(
        r#"
        schema S {
          node Person {
            id fiscalCode: string unique;
            name: string;
            opt birthDate: date;
          }
          node PhysicalPerson { gender: string; }
          node LegalPerson { businessName: string; opt website: string; }
          generalization total disjoint Person -> PhysicalPerson, LegalPerson;
          node Business { intensional numberOfStakeholders: int; }
          generalization LegalPerson -> Business;
          node Share { id shareId: string; percentage: float; }
          node Place { id placeId: string; city: string; }
          edge HOLDS: Person [0..N] -> [0..N] Share { right: string; }
          edge BELONGS_TO: Share [1..N] -> [1..1] Business;
          edge RESIDES: Person [0..N] -> [0..1] Place;
          intensional edge OWNS: Person -> Business { percentage: float; }
          intensional edge CONTROLS: Person -> Business;
        }
        "#,
    )
    .unwrap()
}

/// Stable text form of a translated PG schema (the struct has no canonical
/// serialization; goldens need one that is deliberately boring).
fn render_pg_schema(s: &PgModelSchema) -> String {
    let mut out = String::new();
    for n in &s.node_types {
        out.push_str(&format!(
            "node {} [{}]{}\n",
            n.label,
            n.labels.join(", "),
            if n.intensional { " intensional" } else { "" }
        ));
        for p in &n.properties {
            out.push_str(&format!(
                "  {}: {:?}{}{}{}\n",
                p.name,
                p.ty,
                if p.mandatory { " mandatory" } else { "" },
                if p.intensional { " intensional" } else { "" },
                if n.unique.contains(&p.name) {
                    " unique"
                } else {
                    ""
                },
            ));
        }
    }
    for r in &s.relationships {
        out.push_str(&format!(
            "rel {}: {} -> {}{}\n",
            r.name,
            r.from,
            r.to,
            if r.intensional { " intensional" } else { "" }
        ));
        for p in &r.properties {
            out.push_str(&format!(
                "  {}: {:?}{}{}\n",
                p.name,
                p.ty,
                if p.mandatory { " mandatory" } else { "" },
                if p.intensional { " intensional" } else { "" },
            ));
        }
    }
    out
}

#[test]
fn golden_pg_multilabel() {
    let pg = translate_to_pg(&sample(), PgGeneralizationStrategy::MultiLabel).unwrap();
    assert_snapshot(golden("pg_multilabel"), &render_pg_schema(&pg));
}

#[test]
fn golden_pg_parent_edge() {
    let pg = translate_to_pg(&sample(), PgGeneralizationStrategy::ParentEdge).unwrap();
    assert_snapshot(golden("pg_parent_edge"), &render_pg_schema(&pg));
}

#[test]
fn golden_relational_fk_per_child() {
    let rel =
        translate_to_relational(&sample(), RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
    assert_snapshot(golden("relational_fk_per_child"), &rel.ddl().unwrap());
}

#[test]
fn golden_relational_single_table() {
    let rel = translate_to_relational(&sample(), RelGeneralizationStrategy::SingleTable).unwrap();
    assert_snapshot(golden("relational_single_table"), &rel.ddl().unwrap());
}

#[test]
fn golden_rdfs_vocabulary() {
    let doc = to_rdfs(&sample(), "http://example.org/kg#").to_document();
    assert_snapshot(golden("rdfs_vocabulary"), &doc);
}
