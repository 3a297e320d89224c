//! End-to-end integration: GSL → SSST → enforcement → instance →
//! Algorithm 2 → baseline agreement — the whole KGModel journey on one
//! synthetic financial registry.

use kgmodel::common::Value;
use kgmodel::core::enforce;
use kgmodel::core::intensional::{materialize, MaterializationMode};
use kgmodel::core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgmodel::finance::control::{baseline_control, CONTROL_METALOG};
use kgmodel::finance::generator::{generate_shareholding, ShareholdingConfig};
use kgmodel::finance::schema::{company_kg_schema, simple_ownership_schema};

#[test]
fn full_pipeline_control_matches_baseline() {
    let schema = simple_ownership_schema().unwrap();

    // SSST → PG model; the schema validates the generated instance.
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
    let cfg = ShareholdingConfig {
        nodes: 600,
        person_fraction: 0.3,
        cross_ownership: 0.02,
        seed: 7,
        ..Default::default()
    };
    let mut data = generate_shareholding(&cfg).unwrap();
    pg.check_instance(&data).unwrap();

    // Algorithm 2 with the Example 4.1 MetaLog program.
    let stats = materialize(
        &mut data,
        &schema,
        CONTROL_METALOG,
        MaterializationMode::SinglePass,
    )
    .unwrap();
    assert!(stats.new_edges > 0);

    // The materialized edges must agree with the independent baseline.
    let baseline = baseline_control(&data);
    let materialized: std::collections::BTreeSet<(u64, u64)> = data
        .edges_with_label("CONTROLS")
        .into_iter()
        .filter_map(|e| {
            let (f, t) = data.edge_endpoints(e);
            if f == t {
                return None;
            }
            Some((data.node_oid(f).payload(), data.node_oid(t).payload()))
        })
        .collect();
    let baseline: std::collections::BTreeSet<(u64, u64)> = baseline.into_iter().collect();
    assert_eq!(materialized, baseline);
}

#[test]
fn company_kg_deploys_to_all_three_targets() {
    let schema = company_kg_schema().unwrap();

    // PG target: constraints enforceable on a real store.
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
    let mut store = kgmodel::pgstore::PropertyGraph::new();
    let n = pg.enforce(&mut store).unwrap();
    assert!(n >= 1, "at least the fiscalCode uniqueness constraint");
    let commands = enforce::pg_constraint_commands(&pg);
    assert!(commands.iter().any(|c| c.contains("fiscalCode")));

    // Relational target: catalog + DDL.
    let rel =
        translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
    let catalog = rel.create_catalog().unwrap();
    assert!(catalog.table_names().contains(&"business".to_string()));
    let ddl = rel.ddl().unwrap();
    assert!(ddl.contains("CREATE TABLE \"physical_person\""));

    // RDF target.
    let doc = enforce::rdfs_document(&schema, "http://bankit.example/#");
    assert!(doc.contains("subClassOf"));
}

#[test]
fn relational_instance_respects_generated_constraints() {
    // Deploy the simple schema relationally and load a few rows through the
    // constraint-checked catalog.
    let schema = simple_ownership_schema().unwrap();
    let rel =
        translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
    let mut catalog = rel.create_catalog().unwrap();
    catalog
        .insert_named("person", &[("pid", Value::str("p1"))])
        .unwrap();
    // The FK-per-child tactic: a business row needs its parent person row.
    assert!(
        catalog
            .insert_named("business", &[("pid", Value::str("b1"))])
            .is_err(),
        "class-table inheritance requires the parent row first"
    );
    catalog
        .insert_named("person", &[("pid", Value::str("b1"))])
        .unwrap(); // parent row for the business
    catalog
        .insert_named("business", &[("pid", Value::str("b1"))])
        .unwrap();
    assert!(
        catalog
            .insert_named(
                "owns",
                &[
                    ("src_pid", Value::str("ghost")),
                    ("dst_pid", Value::str("b1")),
                    ("percentage", Value::Float(0.5)),
                ],
            )
            .is_err(),
        "dangling owner must be rejected"
    );
    catalog
        .insert_named(
            "owns",
            &[
                ("src_pid", Value::str("p1")),
                ("dst_pid", Value::str("b1")),
                ("percentage", Value::Float(0.5)),
            ],
        )
        .unwrap();
    assert_eq!(catalog.row_count("owns").unwrap(), 1);
}

#[test]
fn materialization_then_revalidation_succeeds() {
    // After Algorithm 2 adds CONTROLS edges, the instance still conforms to
    // the PG schema (CONTROLS is declared intensional in the design).
    let schema = simple_ownership_schema().unwrap();
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
    let mut data = generate_shareholding(&ShareholdingConfig {
        nodes: 300,
        person_fraction: 0.3,
        ..Default::default()
    })
    .unwrap();
    materialize(
        &mut data,
        &schema,
        CONTROL_METALOG,
        MaterializationMode::Staged,
    )
    .unwrap();
    pg.check_instance(&data).unwrap();
}
