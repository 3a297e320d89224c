//! Company control — the running intensional component of the paper
//! (Examples 4.1 and 4.2).
//!
//! *A business x controls a business y if (i) x directly owns more than 50%
//! of y; or (ii) x controls a set of companies that jointly, and possibly
//! together with x, own more than 50% of y.*
//!
//! Three implementations, compared by experiments E7/E8:
//!
//! 1. [`CONTROL_METALOG`] — Example 4.1 verbatim: the MetaLog program run
//!    through the full Algorithm 2 pipeline;
//! 2. [`control_vadalog`] — Example 4.2: the Vadalog encoding executed
//!    directly on extracted facts (what MTV produces, minus the view
//!    machinery);
//! 3. [`baseline_control`] — an independent worklist algorithm with no
//!    reasoning engine at all, used as ground truth.

use kgm_common::{FxHashMap, FxHashSet, Result, Value};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, RunStats};

/// Example 4.1: company control in MetaLog, over the Figure 4 constructs.
pub const CONTROL_METALOG: &str = r#"
% (1) every company controls itself
(x: Business) -> (x)[c: CONTROLS](x).
% (2) jointly-held majorities propagate control
(x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
    v = msum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
"#;

/// Example 4.2: the Vadalog encoding of company control.
pub const CONTROL_VADALOG: &str = r#"
company(X) -> controls(X, X).
controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y).
@output(controls).
"#;

/// Run the Example 4.2 Vadalog program over a shareholding graph and return
/// the non-reflexive control pairs (as node OID payload pairs). The chase
/// worker count comes from `KGM_THREADS` (via [`EngineConfig::default`]);
/// use [`control_vadalog_threads`] to pin it explicitly.
pub fn control_vadalog(g: &PropertyGraph) -> Result<(FxHashSet<(u64, u64)>, RunStats)> {
    control_vadalog_threads(g, EngineConfig::default().threads)
}

/// [`control_vadalog`] with an explicit chase worker count. Output is
/// bit-identical across counts (see `Engine::run`).
pub fn control_vadalog_threads(
    g: &PropertyGraph,
    threads: usize,
) -> Result<(FxHashSet<(u64, u64)>, RunStats)> {
    let engine = Engine::with_config(
        parse_program(CONTROL_VADALOG)?,
        EngineConfig {
            threads,
            ..Default::default()
        },
    )?;
    let mut db = FactDb::new();
    load_shareholding(g, &mut db)?;
    let stats = engine.run(&mut db)?;
    let mut out = FxHashSet::default();
    for t in db.facts_iter("controls") {
        let (Some(a), Some(b)) = (t[0].as_oid(), t[1].as_oid()) else {
            continue;
        };
        if a != b {
            out.insert((a.payload(), b.payload()));
        }
    }
    Ok((out, stats))
}

/// Load the Example 4.2 EDB — `company/1` and `own/3` — from a shareholding
/// graph into `db`, streaming each row into the store.
pub fn load_shareholding(g: &PropertyGraph, db: &mut FactDb) -> Result<()> {
    let companies = g
        .nodes_with_label("Business")
        .into_iter()
        .map(|n| [Value::Oid(g.node_oid(n))]);
    db.extend("company", companies)?;
    let own = g.edges_with_label("OWNS").into_iter().filter_map(|e| {
        let (f, t) = g.edge_endpoints(e);
        // The Example 4.2 relation is between companies.
        if !g.node_has_label(f, "Business") {
            return None;
        }
        let w = g.edge_prop(e, "percentage")?.clone();
        Some([Value::Oid(g.node_oid(f)), Value::Oid(g.node_oid(t)), w])
    });
    db.extend("own", own)?;
    Ok(())
}

/// Run Example 4.2 with why-provenance recording on and return the engine
/// and the full database, so callers can [`kgm_vadalog::explain`] any
/// `controls` fact. The fact set is bit-identical to the provenance-off run
/// at any worker count; only the `ProvStore` sidecar is extra.
pub fn control_vadalog_prov(
    g: &PropertyGraph,
    threads: usize,
) -> Result<(Engine, FactDb, RunStats)> {
    let engine = Engine::with_config(
        parse_program(CONTROL_VADALOG)?,
        EngineConfig {
            threads,
            provenance: true,
            ..Default::default()
        },
    )?;
    let mut db = FactDb::new();
    load_shareholding(g, &mut db)?;
    let stats = engine.run(&mut db)?;
    Ok((engine, db, stats))
}

/// Independent ground-truth algorithm: for each company `x`, grow the set
/// of controlled companies by a worklist pass — add `y` whenever the
/// companies already controlled by `x` (including `x`) jointly own > 50% of
/// `y`. Shares from the same controlled company count once.
pub fn baseline_control(g: &PropertyGraph) -> FxHashSet<(u64, u64)> {
    // Ownership adjacency: owner → (owned, pct), deduplicated per pair
    // (first edge wins, mirroring the engine's contributor-keyed msum).
    let mut own: FxHashMap<NodeId, Vec<(NodeId, f64)>> = FxHashMap::default();
    let mut seen_pairs: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    for e in g.edges_with_label("OWNS") {
        let (f, t) = g.edge_endpoints(e);
        if !g.node_has_label(f, "Business") {
            continue;
        }
        if !seen_pairs.insert((f, t)) {
            continue;
        }
        let w = g
            .edge_prop(e, "percentage")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        own.entry(f).or_default().push((t, w));
    }
    let companies: Vec<NodeId> = g.nodes_with_label("Business");
    let mut result: FxHashSet<(u64, u64)> = FxHashSet::default();
    for &x in &companies {
        let mut controlled: FxHashSet<NodeId> = FxHashSet::default();
        controlled.insert(x);
        // Accumulated share of each candidate from the controlled set.
        let mut share: FxHashMap<NodeId, f64> = FxHashMap::default();
        let mut counted: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
        let mut worklist: Vec<NodeId> = vec![x];
        while let Some(z) = worklist.pop() {
            let Some(holdings) = own.get(&z) else {
                continue;
            };
            for &(y, w) in holdings {
                if controlled.contains(&y) || !counted.insert((z, y)) {
                    continue;
                }
                let acc = share.entry(y).or_insert(0.0);
                *acc += w;
                if *acc > 0.5 {
                    controlled.insert(y);
                    worklist.push(y);
                }
            }
        }
        for y in controlled {
            if y != x {
                result.insert((g.node_oid(x).payload(), g.node_oid(y).payload()));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_shareholding, ShareholdingConfig};

    fn tiny() -> PropertyGraph {
        // a →60% b; a →30% c; b →30% c  ⇒ a⊳b, a⊳c.
        let mut g = PropertyGraph::new();
        let mk = |g: &mut PropertyGraph, n: &str| {
            g.add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str(n))],
            )
            .unwrap()
        };
        let a = mk(&mut g, "a");
        let b = mk(&mut g, "b");
        let c = mk(&mut g, "c");
        for (f, t, w) in [(a, b, 0.6), (a, c, 0.3), (b, c, 0.3)] {
            g.add_edge(
                f,
                t,
                "OWNS",
                vec![("percentage".to_string(), Value::Float(w))],
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn baseline_handles_joint_control() {
        let g = tiny();
        let ctl = baseline_control(&g);
        assert_eq!(ctl.len(), 2);
    }

    #[test]
    fn vadalog_matches_baseline_on_tiny() {
        let g = tiny();
        let (v, _) = control_vadalog(&g).unwrap();
        assert_eq!(v, baseline_control(&g));
    }

    #[test]
    fn threaded_entry_point_matches_default_and_baseline() {
        let g = tiny();
        let (v1, _) = control_vadalog_threads(&g, 1).unwrap();
        let (v4, _) = control_vadalog_threads(&g, 4).unwrap();
        assert_eq!(v1, v4, "worker count must not change the answer");
        assert_eq!(v1, baseline_control(&g));
    }

    #[test]
    fn prov_run_matches_plain_run_and_explains_control() {
        let g = tiny();
        let (plain, _) = control_vadalog_threads(&g, 1).unwrap();
        let (engine, db, stats) = control_vadalog_prov(&g, 4).unwrap();
        assert!(stats.profile.prov_edges > 0, "provenance was recorded");
        let mut prov = FxHashSet::default();
        for t in db.facts_iter("controls") {
            let (a, b) = (t[0].as_oid().unwrap(), t[1].as_oid().unwrap());
            if a != b {
                prov.insert((a.payload(), b.payload()));
            }
        }
        assert_eq!(prov, plain, "provenance must not change the answer");
        // The joint-control fact a⊳c explains down to EDB own/company leaves.
        for t in db.facts_iter("controls") {
            let tree = kgm_vadalog::explain(&db, "controls", &t).unwrap();
            if t[0] != t[1] {
                assert!(tree.rule.is_some(), "derived control facts carry an edge");
            }
            let _ = kgm_vadalog::render(&tree, engine.program());
        }
    }

    #[test]
    fn vadalog_matches_baseline_on_generated_graphs() {
        for seed in [1, 2, 3] {
            let cfg = ShareholdingConfig {
                nodes: 400,
                person_fraction: 0.3,
                cross_ownership: 0.05,
                seed,
                ..Default::default()
            };
            let g = generate_shareholding(&cfg).unwrap();
            let (v, _) = control_vadalog(&g).unwrap();
            let b = baseline_control(&g);
            assert_eq!(v, b, "seed {seed}: engine and baseline disagree");
        }
    }

    #[test]
    fn control_through_chain_of_majorities() {
        // a →51% b →51% c →51% d: a controls every company downstream.
        let mut g = PropertyGraph::new();
        let mk = |g: &mut PropertyGraph, n: &str| {
            g.add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str(n))],
            )
            .unwrap()
        };
        let ids: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| mk(&mut g, n)).collect();
        for w in ids.windows(2) {
            g.add_edge(
                w[0],
                w[1],
                "OWNS",
                vec![("percentage".to_string(), Value::Float(0.51))],
            )
            .unwrap();
        }
        let ctl = baseline_control(&g);
        assert_eq!(ctl.len(), 3 + 2 + 1, "upper-triangular closure");
        let (v, _) = control_vadalog(&g).unwrap();
        assert_eq!(v, ctl);
    }

    #[test]
    fn no_control_without_majority() {
        let mut g = PropertyGraph::new();
        let a = g
            .add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str("a"))],
            )
            .unwrap();
        let b = g
            .add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str("b"))],
            )
            .unwrap();
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.5))],
        )
        .unwrap();
        assert!(
            baseline_control(&g).is_empty(),
            "exactly 50% is not control"
        );
        let (v, _) = control_vadalog(&g).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn cross_ownership_cycles_terminate() {
        // a ⇄ b with 60% each: a controls b and b controls a.
        let mut g = PropertyGraph::new();
        let a = g
            .add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str("a"))],
            )
            .unwrap();
        let b = g
            .add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str("b"))],
            )
            .unwrap();
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.6))],
        )
        .unwrap();
        g.add_edge(
            b,
            a,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.6))],
        )
        .unwrap();
        let ctl = baseline_control(&g);
        assert_eq!(ctl.len(), 2);
        let (v, _) = control_vadalog(&g).unwrap();
        assert_eq!(v, ctl);
    }
}
