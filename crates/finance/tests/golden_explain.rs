//! Golden snapshot of a rendered derivation-tree explanation for one
//! `controls` fact from the seeded synthetic registry (Example 4.2 run with
//! `EngineConfig::provenance` on).
//!
//! The snapshot pins the whole observable chain: generator determinism,
//! chase determinism (facts and provenance edges are bit-identical at any
//! `KGM_THREADS`), first-derivation-wins edge recording, and the text
//! renderer. A diff means one of those changed — review it, then re-bless
//! with `KGM_BLESS=1 cargo test -p kgm-finance --test golden_explain`.
//! CI runs with `KGM_GOLDEN_FROZEN=1`, which also treats a missing golden
//! as a failure.

use kgm_finance::control::control_vadalog_prov;
use kgm_finance::{generate_shareholding, ShareholdingConfig};
use kgm_runtime::snapshot::assert_snapshot;
use kgm_vadalog::{explain, render, DerivationTree};

fn golden(name: &str) -> String {
    format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Deterministic target: among non-reflexive `controls` facts, the one with
/// the largest derivation tree, ties broken by the smallest (controller,
/// controlled) payload pair — i.e. the most interesting explanation the
/// seeded graph has to offer.
#[test]
fn golden_control_explanation() {
    let cfg = ShareholdingConfig {
        nodes: 120,
        person_fraction: 0.3,
        cross_ownership: 0.05,
        seed: 7,
        ..Default::default()
    };
    let g = generate_shareholding(&cfg).unwrap();
    let (engine, db, stats) = control_vadalog_prov(&g, 4).unwrap();
    assert!(
        stats.profile.prov_edges > 0,
        "seeded graph derives control facts"
    );

    let mut best: Option<(usize, (u64, u64), DerivationTree)> = None;
    for t in db.facts_iter("controls") {
        let (Some(a), Some(b)) = (t[0].as_oid(), t[1].as_oid()) else {
            continue;
        };
        if a == b {
            continue;
        }
        let tree = explain(&db, "controls", &t).expect("listed fact explains");
        let key = (tree.node_count(), (a.payload(), b.payload()));
        let better = match &best {
            None => true,
            Some((n, pair, _)) => key.0 > *n || (key.0 == *n && key.1 < *pair),
        };
        if better {
            best = Some((key.0, key.1, tree));
        }
    }
    let (_, _, tree) = best.expect("seeded graph has a non-reflexive control fact");
    let out = render(&tree, engine.program());
    assert_snapshot(golden("control_explanation"), &out);
}
