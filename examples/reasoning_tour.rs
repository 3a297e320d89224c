//! A tour of the reasoning stack: Vadalog directly, MetaLog through MTV,
//! and the financial intensional components on one synthetic registry.
//!
//! Run with `cargo run --release --example reasoning_tour [nodes]`.

use kgmodel::common::Value;
use kgmodel::finance::close_links::close_links;
use kgmodel::finance::control::{baseline_control, control_vadalog};
use kgmodel::finance::generator::{generate_shareholding, ShareholdingConfig};
use kgmodel::finance::ownership::integrated_ownership;
use kgmodel::metalog::{parse_metalog, translate, PgSchema};
use kgmodel::vadalog::{parse_program, Engine, FactDb};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000);

    // --- 1. Plain Vadalog: the company-control program of Example 4.2.
    let program = parse_program(
        r#"
        company(X) -> controls(X, X).
        controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        company(10). company(20). company(30).
        own(10, 20, 0.6). own(10, 30, 0.3). own(20, 30, 0.3).
        @output(controls).
        "#,
    )?;
    let engine = Engine::new(program)?;
    let analysis = engine.analysis();
    println!(
        "Example 4.2 in Vadalog: warded={}, piecewise-linear={}, strata={}",
        analysis.warded, analysis.piecewise_linear, analysis.stratification.count
    );
    let mut db = FactDb::new();
    let stats = engine.run(&mut db)?;
    println!(
        "  chase: {} facts derived in {} iterations",
        stats.derived_facts, stats.iterations
    );
    for t in db.facts_iter("controls") {
        if t[0] != t[1] {
            println!("  controls({}, {})", t[0], t[1]);
        }
    }

    // --- 2. MetaLog → Vadalog via MTV: the DESCFROM pattern of Example 4.3.
    let mut catalog = PgSchema::new();
    catalog
        .declare_node("SM_Node", Vec::<String>::new())
        .declare_edge("SM_CHILD", Vec::<String>::new())
        .declare_edge("SM_PARENT", Vec::<String>::new())
        .declare_edge("DESCFROM", Vec::<String>::new());
    let meta = parse_metalog(
        "(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT]-)* (y: SM_Node)
            -> (x)[w: DESCFROM](y).",
    )?;
    let out = translate(&meta, &catalog, "dict")?;
    println!("\nExample 4.3 compiled by MTV:");
    for line in out.vadalog_source.lines().take(5) {
        println!("  {line}");
    }

    // --- 2b. The Algorithm 2 views generated for the control component.
    let simple = kgmodel::finance::simple_ownership_schema()?;
    let (vi, vo) = kgmodel::core::intensional::view_programs(
        &simple,
        kgmodel::finance::control::CONTROL_METALOG,
    )?;
    println!(
        "\nAlgorithm 2 views for the control component: {} V_I rules, {} V_O rules",
        vi.lines().filter(|l| l.contains("->")).count(),
        vo.lines().filter(|l| l.contains("->")).count()
    );
    for line in vi.lines().filter(|l| l.contains("-> Business")).take(1) {
        println!("  V_I example: {line}");
    }

    // --- 3. The financial components on a generated registry.
    let g = generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        ..Default::default()
    })?;
    println!(
        "\nregistry: {} nodes, {} OWNS edges",
        g.node_count(),
        g.edge_count()
    );
    let (ctl, run) = control_vadalog(&g)?;
    let base = baseline_control(&g);
    println!(
        "control: engine {} pairs in {} iterations; baseline {} pairs; agree: {}",
        ctl.len(),
        run.iterations,
        base.len(),
        ctl == base
    );
    let io = integrated_ownership(&g, 1e-9, 200);
    println!("integrated ownership: {} (owner, owned) entries", io.len());
    let links = close_links(&io);
    println!(
        "ECB close links (≥ 20% direct or indirect): {} pairs",
        links.len()
    );

    // Show a couple of concrete links.
    for (a, b) in links.iter().take(3) {
        let name = |n| {
            g.node_prop(n, "pid")
                .cloned()
                .unwrap_or(Value::str("?"))
                .to_string()
        };
        println!("  {} ~ {}", name(*a), name(*b));
    }
    Ok(())
}
