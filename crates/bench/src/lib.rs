//! Experiment harness: one function per paper artefact (table/figure).
//!
//! Each `eN_*` function regenerates the corresponding artefact of the
//! DESIGN.md experiment index and returns both the measured values and a
//! printable report comparing them against what the paper states. The
//! `paper-harness` binary is a thin wrapper; the `kgbench` binary is the
//! repository's benchmark.

use kgm_common::Result;
use kgm_core::intensional::{materialize, MaterializationMode, MaterializationStats};
use kgm_core::models::pg::PgModelSchema;
use kgm_core::models::relational::RelationalSchema;
use kgm_core::render;
use kgm_core::sst::{
    translate_to_pg, translate_to_relational, PgGeneralizationStrategy, RelGeneralizationStrategy,
};
use kgm_core::sst_metalog::translate_to_pg_via_metalog;
use kgm_core::SuperSchema;
use kgm_finance::control::{baseline_control, control_vadalog, CONTROL_METALOG};
use kgm_finance::generator::{generate_shareholding, ShareholdingConfig};
use kgm_finance::schema::{company_kg_schema, simple_ownership_schema};
use kgm_pgstore::algo::EdgeFilter;
use kgm_pgstore::{GraphStats, PropertyGraph};
use kgm_runtime::telemetry;
use std::fmt::Write as _;

/// E1 — the Section 2.1 topology statistics, paper vs measured.
pub struct E1Result {
    /// Measured statistics on the synthetic graph.
    pub stats: GraphStats,
    /// Printable paper-vs-measured table.
    pub report: String,
    /// The log-log in-degree distribution (the power-law evidence).
    pub degree_distribution: String,
}

/// Run E1 at `nodes` scale.
pub fn e1_graph_stats(nodes: usize) -> Result<E1Result> {
    let g = generate_shareholding(&ShareholdingConfig::with_nodes(nodes))?;
    let stats = GraphStats::compute(&g, &EdgeFilter::label("OWNS"));
    let degree_distribution = kgm_pgstore::degree_distribution_table(
        &kgm_pgstore::in_degree_histogram(&g, &EdgeFilter::label("OWNS")),
    );
    let scale = nodes as f64 / 11_970_000.0;
    let mut report = String::new();
    writeln!(
        report,
        "E1 — §2.1 shareholding-graph topology (scale factor {scale:.2e})"
    )
    .ok();
    writeln!(
        report,
        "{:<28} {:>16} {:>16}",
        "measure", "paper (11.97M)", "measured"
    )
    .ok();
    let row = |r: &mut String, m: &str, paper: String, measured: String| {
        writeln!(r, "{m:<28} {paper:>16} {measured:>16}").ok();
    };
    row(
        &mut report,
        "nodes",
        "11.97M".into(),
        stats.nodes.to_string(),
    );
    row(
        &mut report,
        "edges",
        "14.18M".into(),
        stats.edges.to_string(),
    );
    row(
        &mut report,
        "edges/node",
        "1.185".into(),
        format!("{:.3}", stats.edges as f64 / stats.nodes.max(1) as f64),
    );
    row(
        &mut report,
        "SCC count / nodes",
        "0.999 (11.96M)".into(),
        format!("{:.3}", stats.scc_count as f64 / stats.nodes.max(1) as f64),
    );
    row(
        &mut report,
        "largest WCC / nodes",
        ">0.50 (6M+)".into(),
        format!(
            "{:.3}",
            stats.largest_wcc as f64 / stats.nodes.max(1) as f64
        ),
    );
    row(
        &mut report,
        "avg in-degree (active)",
        "3.12".into(),
        format!("{:.2}", stats.avg_in_degree),
    );
    row(
        &mut report,
        "avg out-degree (active)",
        "1.78".into(),
        format!("{:.2}", stats.avg_out_degree),
    );
    row(
        &mut report,
        "max in-degree",
        "16.9k".into(),
        stats.max_in_degree.to_string(),
    );
    row(
        &mut report,
        "max out-degree",
        "5.1k".into(),
        stats.max_out_degree.to_string(),
    );
    row(
        &mut report,
        "clustering coefficient",
        "0.0086".into(),
        format!("{:.4}", stats.clustering_coefficient),
    );
    row(
        &mut report,
        "power-law α (MLE)",
        "scale-free".into(),
        stats
            .power_law_alpha
            .map(|a| format!("{a:.2}"))
            .unwrap_or_else(|| "n/a".into()),
    );
    Ok(E1Result {
        stats,
        report,
        degree_distribution,
    })
}

/// E2 — regenerate Figure 2 (meta-model) and Figure 3 (super-model
/// dictionary + Γ_SM table) as DOT/text artefacts.
pub fn e2_meta_and_super_model() -> Result<(String, String, String)> {
    let mm = kgm_core::metamodel::meta_model()?;
    let sm = kgm_core::metamodel::super_model_dictionary()?;
    Ok((
        render::render_pg(&mm, "Figure 2 — the meta-model"),
        render::render_pg(&sm, "Figure 3 — the super-model dictionary"),
        render::gamma_sm_table(),
    ))
}

/// E3 — regenerate Figure 4: the Company KG GSL diagram.
pub fn e3_company_kg_diagram() -> Result<(SuperSchema, String)> {
    let schema = company_kg_schema()?;
    let dot = render::render_super_schema(&schema);
    Ok((schema, dot))
}

/// E4 — Figures 5/6: the super-schema → PG-model translation.
pub fn e4_pg_translation() -> Result<(PgModelSchema, String)> {
    let schema = company_kg_schema()?;
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel)?;
    let mut report = String::new();
    writeln!(
        report,
        "E4 — Figure 6: Company KG translated to the PG model"
    )
    .ok();
    writeln!(
        report,
        "node types: {}   relationships: {}",
        pg.node_types.len(),
        pg.relationships.len()
    )
    .ok();
    for nt in &pg.node_types {
        writeln!(
            report,
            "  ({}) labels=[{}] props={} unique=[{}]{}",
            nt.label,
            nt.labels.join(":"),
            nt.properties.len(),
            nt.unique.join(","),
            if nt.intensional { " (intensional)" } else { "" }
        )
        .ok();
    }
    for r in &pg.relationships {
        writeln!(
            report,
            "  ({})-[{}{}]->({})",
            r.from,
            r.name,
            if r.intensional { "*" } else { "" },
            r.to
        )
        .ok();
    }
    Ok((pg, report))
}

/// E5 — Figures 7/8: the super-schema → relational translation, with DDL.
pub fn e5_relational_translation() -> Result<(RelationalSchema, String)> {
    let schema = company_kg_schema()?;
    let rel = translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)?;
    let ddl = rel.ddl()?;
    let mut report = String::new();
    writeln!(
        report,
        "E5 — Figure 8: Company KG translated to the relational model"
    )
    .ok();
    writeln!(
        report,
        "tables: {}   foreign keys: {}",
        rel.tables.len(),
        rel.foreign_keys.len()
    )
    .ok();
    report.push_str(&ddl);
    Ok((rel, report))
}

/// E6 — Figure 9 / Examples 6.1–6.2: instance constructs and views, shown
/// on a small Company KG instance.
pub fn e6_instance_constructs(nodes: usize) -> Result<String> {
    let schema = simple_ownership_schema()?;
    let data = generate_shareholding(&ShareholdingConfig::with_nodes(nodes))?;
    let mut dict = kgm_core::dictionary::Dictionary::new();
    dict.encode(&schema, 1)?;
    let (stats, _) = kgm_core::instances::load_instance(&mut dict, &schema, 1, 100, &data)?;
    let mut report = String::new();
    writeln!(report, "E6 — instance-level super-constructs (Figure 9)").ok();
    writeln!(
        report,
        "data: {} nodes / {} edges → I_SM_Node {}  I_SM_Edge {}  I_SM_Attribute {}",
        data.node_count(),
        data.edge_count(),
        stats.nodes,
        stats.edges,
        stats.attributes
    )
    .ok();
    let back = kgm_core::instances::flush_instance(&dict, &schema, 100)?;
    writeln!(
        report,
        "quasi-inverse round trip: {} nodes / {} edges restored ({})",
        back.node_count(),
        back.edge_count(),
        if back.node_count() == data.node_count() && back.edge_count() == data.edge_count() {
            "exact"
        } else {
            "MISMATCH"
        }
    )
    .ok();
    Ok(report)
}

/// One row of the E7 sweep.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Graph size (nodes).
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Materialization statistics (load/reason/flush split).
    pub stats: MaterializationStats,
    /// Control edges produced (non-reflexive).
    pub control_edges: usize,
}

/// E7 — the §6 performance experiment: the control intensional component
/// through the full Algorithm 2 pipeline, with the load/reason/flush split
/// the paper reports (~15 min load+flush vs ~160 min reasoning).
pub fn e7_control_pipeline(nodes: usize, mode: MaterializationMode) -> Result<E7Row> {
    let schema = simple_ownership_schema()?;
    let mut data = generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        ..Default::default()
    })?;
    let edges = data.edge_count();
    let stats = materialize(&mut data, &schema, CONTROL_METALOG, mode)?;
    let control_edges = data
        .edges_with_label("CONTROLS")
        .into_iter()
        .filter(|&e| {
            let (f, t) = data.edge_endpoints(e);
            f != t
        })
        .count();
    Ok(E7Row {
        nodes,
        edges,
        stats,
        control_edges,
    })
}

/// Format an E7 sweep as the paper-vs-measured report.
pub fn e7_report(rows: &[E7Row]) -> String {
    let mut report = String::new();
    writeln!(
        report,
        "E7 — §6: control materialization, load/reason/flush split"
    )
    .ok();
    writeln!(
        report,
        "paper (11.97M nodes, 16 cores): reasoning ≈ 160 min, load+flush ≈ 15 min (≈ 10.7:1)"
    )
    .ok();
    writeln!(
        report,
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "nodes", "edges", "load ms", "reason ms", "flush ms", "ratio", "controls"
    )
    .ok();
    for r in rows {
        let lf = r.stats.load_ms + r.stats.flush_ms;
        let ratio = if lf > 0.0 {
            r.stats.reason_ms / lf
        } else {
            0.0
        };
        // A truncated chase (deadline, cap, cancellation) still yields a
        // usable prefix — but the row must say so.
        let truncated = if r.stats.termination.is_complete() {
            String::new()
        } else {
            format!("  [truncated: {}]", r.stats.termination)
        };
        writeln!(
            report,
            "{:>8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>8.1}:1 {:>8}{truncated}",
            r.nodes,
            r.edges,
            r.stats.load_ms,
            r.stats.reason_ms,
            r.stats.flush_ms,
            ratio,
            r.control_edges
        )
        .ok();
    }
    report
}

/// E8 — Examples 4.1–4.4: MTV translation overhead — the same control
/// relation computed (a) by the Algorithm 2 MetaLog pipeline, (b) by the
/// directly-written Vadalog program of Example 4.2, (c) by the native
/// baseline algorithm. All three must agree; wall times expose the
/// model-independence overhead.
pub struct E8Result {
    /// Graph nodes.
    pub nodes: usize,
    /// (pipeline ms, direct-vadalog ms, baseline ms).
    pub times_ms: (f64, f64, f64),
    /// Control pairs found (must agree across paths).
    pub control_pairs: usize,
    /// Printable report.
    pub report: String,
}

/// Run E8 at `nodes` scale.
pub fn e8_mtv_overhead(nodes: usize) -> Result<E8Result> {
    let schema = simple_ownership_schema()?;
    let cfg = ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        ..Default::default()
    };
    let data = generate_shareholding(&cfg)?;

    let (baseline, t_baseline) =
        telemetry::time("e8.baseline", String::new(), || baseline_control(&data));

    let (direct, t_direct) = telemetry::time("e8.direct_vadalog", String::new(), || {
        control_vadalog(&data)
    });
    let (direct, _) = direct?;

    let mut pipeline_data = generate_shareholding(&cfg)?;
    let (pipeline_res, t_pipeline) = telemetry::time("e8.pipeline", String::new(), || {
        materialize(
            &mut pipeline_data,
            &schema,
            CONTROL_METALOG,
            MaterializationMode::SinglePass,
        )
    });
    pipeline_res?;
    let pipeline_pairs = pipeline_data
        .edges_with_label("CONTROLS")
        .into_iter()
        .filter(|&e| {
            let (f, x) = pipeline_data.edge_endpoints(e);
            f != x
        })
        .count();

    let agree = direct == baseline && pipeline_pairs == baseline.len();
    let mut report = String::new();
    writeln!(
        report,
        "E8 — MTV / model-independence overhead at {nodes} nodes"
    )
    .ok();
    writeln!(report, "{:<28} {:>12} {:>10}", "path", "time (ms)", "pairs").ok();
    writeln!(
        report,
        "{:<28} {:>12.1} {:>10}",
        "baseline algorithm",
        t_baseline,
        baseline.len()
    )
    .ok();
    writeln!(
        report,
        "{:<28} {:>12.1} {:>10}",
        "direct Vadalog (Ex. 4.2)",
        t_direct,
        direct.len()
    )
    .ok();
    writeln!(
        report,
        "{:<28} {:>12.1} {:>10}",
        "Algorithm 2 pipeline (Ex. 4.1)", t_pipeline, pipeline_pairs
    )
    .ok();
    writeln!(report, "results agree: {agree}").ok();
    Ok(E8Result {
        nodes,
        times_ms: (t_pipeline, t_direct, t_baseline),
        control_pairs: baseline.len(),
        report,
    })
}

/// E9 — implementation strategies (§5.1): schema sizes produced by the PG
/// and relational strategies, plus the MetaLog-driven path.
pub fn e9_strategies() -> Result<String> {
    let schema = company_kg_schema()?;
    let multi = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel)?;
    let parent = translate_to_pg(&schema, PgGeneralizationStrategy::ParentEdge)?;
    let fk = translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)?;
    let single = translate_to_relational(&schema, RelGeneralizationStrategy::SingleTable)?;
    let (metalog, t_metalog) = telemetry::time("e9.metalog_pg", String::new(), || {
        translate_to_pg_via_metalog(&simpler_for_metalog()?)
    });
    let metalog = metalog?;
    let mut report = String::new();
    writeln!(report, "E9 — implementation strategies (§5.1 ablation)").ok();
    writeln!(
        report,
        "PG multi-label : {} node types, {} relationships",
        multi.node_types.len(),
        multi.relationships.len()
    )
    .ok();
    writeln!(
        report,
        "PG parent-edge : {} node types, {} relationships (edge copy-down + IS_A)",
        parent.node_types.len(),
        parent.relationships.len()
    )
    .ok();
    writeln!(
        report,
        "REL fk-per-child: {} tables, {} foreign keys",
        fk.tables.len(),
        fk.foreign_keys.len()
    )
    .ok();
    writeln!(
        report,
        "REL single-table: {} tables, {} foreign keys",
        single.tables.len(),
        single.foreign_keys.len()
    )
    .ok();
    writeln!(
        report,
        "MetaLog-driven PG mapping (Examples 5.1/5.2): {} node types in {:.1} ms \
         (intermediate S⁻: {} constructs)",
        metalog.schema.node_types.len(),
        t_metalog,
        metalog.intermediate_constructs
    )
    .ok();
    // The §5.3 relational mapping runs on the identifier-complete subset of
    // the Company KG (intensional virtual concepts such as Family have no
    // identifier and are materialized, not deployed, in the relational
    // tactic).
    let rel_schema = rel_mapping_input()?;
    let (rel_run, t_rel) = telemetry::time("e9.metalog_rel", String::new(), || {
        kgm_core::sst_metalog_rel::translate_to_relational_via_metalog(&rel_schema)
    });
    let rel_run = rel_run?;
    writeln!(
        report,
        "MetaLog-driven REL mapping (§5.3): {} tables, {} FK pairs in {:.1} ms",
        rel_run.structure.tables.len(),
        rel_run.structure.fk_pairs.len(),
        t_rel
    )
    .ok();
    Ok(report)
}

/// The Company KG restricted to the constructs the MetaLog mapping pipeline
/// covers (it needs every label in its catalog; the full Figure 4 works but
/// takes longer under the dev profile).
fn simpler_for_metalog() -> Result<SuperSchema> {
    company_kg_schema()
}

/// The extensional, identifier-complete part of the Company KG used by the
/// relational MetaLog mapping.
fn rel_mapping_input() -> Result<SuperSchema> {
    let full = company_kg_schema()?;
    let s = full.extensional_only();
    s.validate()?;
    Ok(s)
}

/// E10 — the §6 staging optimization: single-pass vs staged view
/// materialization.
pub fn e10_staging(nodes: usize) -> Result<String> {
    let single = e7_control_pipeline(nodes, MaterializationMode::SinglePass)?;
    let staged = e7_control_pipeline(nodes, MaterializationMode::Staged)?;
    let mut report = String::new();
    writeln!(report, "E10 — §6 staging ablation at {nodes} nodes").ok();
    writeln!(
        report,
        "{:<12} {:>12} {:>10}",
        "mode", "reason ms", "controls"
    )
    .ok();
    writeln!(
        report,
        "{:<12} {:>12.1} {:>10}",
        "single-pass", single.stats.reason_ms, single.control_edges
    )
    .ok();
    writeln!(
        report,
        "{:<12} {:>12.1} {:>10}",
        "staged", staged.stats.reason_ms, staged.control_edges
    )
    .ok();
    writeln!(
        report,
        "results agree: {}",
        single.control_edges == staged.control_edges
    )
    .ok();
    Ok(report)
}

/// The seeded shareholding graph `paper-harness` runs its smokes, `explain`
/// and timing gates on.
pub fn bench_graph(nodes: usize) -> PropertyGraph {
    generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        ..Default::default()
    })
    .expect("generation cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_report_contains_all_measures() {
        let r = e1_graph_stats(2_000).unwrap();
        for k in ["edges/node", "clustering", "power-law"] {
            assert!(r.report.contains(k), "missing {k}");
        }
        assert_eq!(r.stats.nodes, 2_000);
    }

    #[test]
    fn e2_artifacts_render() {
        let (mm, sm, table) = e2_meta_and_super_model().unwrap();
        assert!(mm.contains("MM_Entity"));
        assert!(sm.contains("SM_Node"));
        assert!(table.contains("Grapheme"));
    }

    #[test]
    fn e3_figure_4_renders() {
        let (schema, dot) = e3_company_kg_diagram().unwrap();
        assert_eq!(schema.name, "CompanyKG");
        assert!(dot.contains("CONTROLS"));
    }

    #[test]
    fn e4_and_e5_translate_the_company_kg() {
        let (pg, _) = e4_pg_translation().unwrap();
        assert_eq!(pg.node_types.len(), 11);
        let (rel, report) = e5_relational_translation().unwrap();
        assert!(rel.tables.len() >= 11);
        assert!(report.contains("CREATE TABLE"));
    }

    #[test]
    fn e6_round_trips() {
        let report = e6_instance_constructs(200).unwrap();
        assert!(report.contains("exact"), "{report}");
    }

    #[test]
    fn e7_small_run_completes() {
        let row = e7_control_pipeline(150, MaterializationMode::SinglePass).unwrap();
        assert!(row.control_edges > 0);
        let report = e7_report(&[row]);
        assert!(report.contains("reason ms"));
    }

    #[test]
    fn e8_paths_agree() {
        let r = e8_mtv_overhead(200).unwrap();
        assert!(r.report.contains("results agree: true"), "{}", r.report);
    }

    #[test]
    fn e10_modes_agree() {
        let report = e10_staging(150).unwrap();
        assert!(report.contains("results agree: true"), "{report}");
    }
}
