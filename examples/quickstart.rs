//! Quickstart: the full KGModel journey on a small domain.
//!
//! 1. Design a super-schema in GSL (the textual Graph Schema Language).
//! 2. Render the GSL diagram (Γ_SM → DOT).
//! 3. Translate it to the property-graph and relational models (SSST).
//! 4. Load an instance and materialize an intensional component written in
//!    MetaLog (Algorithm 2).
//!
//! Run with `cargo run --example quickstart`.

use kgmodel::common::Value;
use kgmodel::core::intensional::{materialize, MaterializationMode};
use kgmodel::core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgmodel::core::{parse_gsl, render};
use kgmodel::pgstore::PropertyGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Conceptual design: a miniature company domain.
    let schema = parse_gsl(
        r#"
        schema Quickstart {
          node Person {
            id fiscalCode: string unique;
            name: string;
          }
          node Business {
            capital: float;
          }
          generalization Person -> Business;
          edge OWNS: Person [0..N] -> [0..N] Business {
            percentage: float;
          }
          intensional edge CONTROLS: Person -> Business;
        }
        "#,
    )?;
    println!("parsed super-schema `{}`:", schema.name);
    println!(
        "  {} nodes, {} edges, {} generalizations",
        schema.nodes.len(),
        schema.edges.len(),
        schema.generalizations.len()
    );

    // 2. The visual design diagram (Figure 4 style).
    let dot = render::render_super_schema(&schema);
    println!("\nGSL diagram (DOT, first lines):");
    for line in dot.lines().take(6) {
        println!("  {line}");
    }

    // 3. SSST: model-level translations.
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel)?;
    println!("\nPG model schema (Figure 6 style):");
    for nt in &pg.node_types {
        println!(
            "  ({}) labels=[{}], {} properties",
            nt.label,
            nt.labels.join(":"),
            nt.properties.len()
        );
    }
    let rel = translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)?;
    println!("\nrelational DDL (Figure 8 style):\n{}", rel.ddl()?);

    // 4. An instance + the control intensional component (Example 4.1).
    let mut data = PropertyGraph::new();
    let mk = |g: &mut PropertyGraph, name: &str| {
        g.add_node(
            ["Business", "Person"],
            vec![
                ("fiscalCode".to_string(), Value::str(name)),
                ("name".to_string(), Value::str(name)),
                ("capital".to_string(), Value::Float(1.0)),
            ],
        )
        .unwrap()
    };
    let alpha = mk(&mut data, "ALPHA");
    let beta = mk(&mut data, "BETA");
    let gamma = mk(&mut data, "GAMMA");
    let own = |g: &mut PropertyGraph, f, t, pct: f64| {
        g.add_edge(
            f,
            t,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(pct))],
        )
        .unwrap();
    };
    own(&mut data, alpha, beta, 0.6); // ALPHA holds 60% of BETA
    own(&mut data, alpha, gamma, 0.3); // …30% of GAMMA directly
    own(&mut data, beta, gamma, 0.3); // …and 30% more through BETA

    let sigma = r#"
        (x: Business) -> (x)[c: CONTROLS](x).
        (x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
            v = msum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
    "#;
    let stats = materialize(&mut data, &schema, sigma, MaterializationMode::SinglePass)?;
    println!(
        "materialized control: {} new edges (load {:.1} ms, reason {:.1} ms, flush {:.1} ms)",
        stats.new_edges, stats.load_ms, stats.reason_ms, stats.flush_ms
    );
    for e in data.edges_with_label("CONTROLS") {
        let (f, t) = data.edge_endpoints(e);
        if f != t {
            println!(
                "  {} CONTROLS {}",
                data.node_prop(f, "name").unwrap(),
                data.node_prop(t, "name").unwrap()
            );
        }
    }
    Ok(())
}
