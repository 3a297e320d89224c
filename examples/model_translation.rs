//! Model-independence tour: one super-schema, every target model, both
//! SSST execution paths.
//!
//! Shows Algorithm 1 twice on the same design: the native Rust mapping and
//! the paper-faithful MetaLog mapping programs (Examples 5.1/5.2) compiled
//! by MTV and executed by the Vadalog engine over the dictionary graph —
//! then verifies both produce the same schema.
//!
//! Run with `cargo run --example model_translation`.

use kgmodel::core::enforce;
use kgmodel::core::parse_gsl;
use kgmodel::core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgmodel::core::sst_metalog::translate_to_pg_via_metalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = parse_gsl(
        r#"
        schema Registry {
          node Person { id fiscalCode: string unique; name: string; }
          node PhysicalPerson { gender: string; opt birthDate: date; }
          node LegalPerson { businessName: string; }
          generalization total disjoint Person -> PhysicalPerson, LegalPerson;
          node Business { shareholdingCapital: float; }
          generalization LegalPerson -> Business;
          node Share { id shareId: string; percentage: float; }
          edge HOLDS: Person [0..N] -> [1..N] Share { right: string; }
          edge BELONGS_TO: Share [1..N] -> [1..1] Business;
          intensional edge CONTROLS: Person -> Business;
        }
        "#,
    )?;

    // --- Path A: native SSST.
    let native = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel)?;
    println!("native SSST → PG model:");
    for nt in &native.node_types {
        println!(
            "  {} as [{}], {} props, unique: [{}]",
            nt.label,
            nt.labels.join(":"),
            nt.properties.len(),
            nt.unique.join(",")
        );
    }

    // --- Path B: the MetaLog mapping programs (Examples 5.1/5.2).
    let run = translate_to_pg_via_metalog(&schema)?;
    println!(
        "\nMetaLog-driven SSST: S⁻ holds {} constructs; schemas equal: {}",
        run.intermediate_constructs,
        run.schema == native
    );
    println!("\ncompiled Eliminate program (Vadalog, first rules):");
    for line in run
        .eliminate_vadalog
        .lines()
        .filter(|l| !l.trim().is_empty())
        .take(4)
    {
        println!("  {line}");
    }

    // --- Other targets from the same design.
    let rel = translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)?;
    println!("\nrelational DDL:\n{}", rel.ddl()?);
    println!(
        "RDF-S document ({} triples):",
        enforce::rdfs_document(&schema, "http://example.org/registry#")
            .lines()
            .count()
    );
    for line in enforce::rdfs_document(&schema, "http://example.org/registry#")
        .lines()
        .take(4)
    {
        println!("  {line}");
    }
    Ok(())
}
