//! The Bank of Italy Company KG scenario (Sections 2–3 of the paper).
//!
//! Builds the full Figure 4 super-schema, deploys it to every target model
//! (property graph, relational, RDF-S), generates a synthetic shareholding
//! registry, reports the §2.1 topology statistics and materializes the
//! company-control intensional component, ending with company groups.
//!
//! Run with `cargo run --release --example bank_of_italy [nodes]`.

use kgmodel::core::enforce;
use kgmodel::core::intensional::{materialize, MaterializationMode};
use kgmodel::core::render;
use kgmodel::core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgmodel::finance::control::{baseline_control, CONTROL_METALOG};
use kgmodel::finance::families::{check_families, FAMILIES_METALOG};
use kgmodel::finance::generator::{generate_shareholding, ShareholdingConfig};
use kgmodel::finance::groups::company_groups;
use kgmodel::finance::registry::{generate_registry, RegistryConfig};
use kgmodel::finance::schema::{company_kg_schema, simple_ownership_schema};
use kgmodel::pgstore::algo::EdgeFilter;
use kgmodel::pgstore::GraphStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    // --- Conceptual design: the Figure 4 Company KG.
    let schema = company_kg_schema()?;
    println!(
        "Company KG: {} entities, {} relationships, {} generalizations",
        schema.nodes.len(),
        schema.edges.len(),
        schema.generalizations.len()
    );
    let dot = render::render_super_schema(&schema);
    println!("GSL diagram: {} DOT lines", dot.lines().count());

    // --- Deploy to the three target systems.
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel)?;
    let commands = enforce::pg_constraint_commands(&pg);
    println!(
        "\nPG target: {} node types, {} relationships, {} constraint commands",
        pg.node_types.len(),
        pg.relationships.len(),
        commands.len()
    );
    let rel = translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)?;
    println!(
        "relational target: {} tables, {} foreign keys ({} DDL lines)",
        rel.tables.len(),
        rel.foreign_keys.len(),
        rel.ddl()?.lines().count()
    );
    let rdfs = enforce::rdfs_document(&schema, "http://bancaditalia.example/kg#");
    println!("RDF target: {} RDF-S triples", rdfs.lines().count());

    // --- Synthetic registry + §2.1 statistics.
    let mut data = generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.4,
        cross_ownership: 0.005,
        ..Default::default()
    })?;
    println!("\nsynthetic shareholding registry ({nodes} nodes):");
    let stats = GraphStats::compute(&data, &EdgeFilter::label("OWNS"));
    print!("{stats}");

    // --- Intensional component: company control (Example 4.1).
    let simple = simple_ownership_schema()?;
    let mstats = materialize(
        &mut data,
        &simple,
        CONTROL_METALOG,
        MaterializationMode::SinglePass,
    )?;
    let controls = baseline_control(&data);
    println!(
        "\ncontrol materialized: {} edges in {:.0} ms reasoning \
         ({:.0} ms load, {:.0} ms flush); baseline agrees on {} pairs",
        mstats.new_edges,
        mstats.reason_ms,
        mstats.load_ms,
        mstats.flush_ms,
        controls.len()
    );

    // --- Analysis: company groups over the control relation.
    let groups = company_groups(&controls);
    let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
    println!(
        "company groups: {} groups, largest has {} members",
        groups.len(),
        largest
    );

    // --- The full Figure 4 registry + the family/partnership component
    //     (creates brand-new intensional Family nodes).
    let mut registry = generate_registry(&RegistryConfig::default())?;
    println!(
        "\nfull registry: {} nodes, {} edges (persons, businesses, shares, \
         places, events)",
        registry.node_count(),
        registry.edge_count()
    );
    let fstats = materialize(
        &mut registry,
        &schema,
        FAMILIES_METALOG,
        MaterializationMode::SinglePass,
    )?;
    let n_families = check_families(&registry)?;
    println!(
        "families materialized: {} Family nodes, {} IS_RELATED_TO/membership \
         edges ({:.0} ms reasoning)",
        n_families, fstats.new_edges, fstats.reason_ms
    );
    Ok(())
}
