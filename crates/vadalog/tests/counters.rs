//! Every chase number reaches the caller through three channels: the
//! returned `RunStats`, the process metrics registry and the root span of
//! the call (`chase.run` or `chase.update`) with its `chase.stratum`
//! children and `chase.rule` leaves. This suite checks, call by call, that
//! the three carry the same values and that the run totals are the sums of
//! the per-stratum counters.
//!
//! The metrics registry is process-global, so this binary holds exactly one
//! test: a second one running concurrently would move the counters between
//! the snapshots that bracket a call.

use kgm_common::Value;
use kgm_runtime::telemetry::{self, Collector, MetricsSnapshot, SpanNode};
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, RunStats, StratumProfile, Update};
use std::collections::BTreeMap;

/// Company control with a monotonic sum and an existential: one stratum,
/// so updates can run DRed over the recorded provenance.
const CONTROL: &str = r#"
    company(X) -> controls(X, X).
    controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y).
    own(X, Y, W) -> shell(X, N).
"#;

/// An exact count over the control relation: a second stratum.
const REACH: &str = "controls(X, Y), C = count(<Y>) -> reach(X, C).";

fn build(src: &str, threads: usize, provenance: bool) -> Engine {
    let config = EngineConfig {
        threads,
        min_parallel_batch: 1,
        deadline_ms: None,
        provenance,
        ..EngineConfig::default()
    };
    Engine::with_config(parse_program(src).unwrap(), config).unwrap()
}

/// A 24-company ownership chain with joint-control diamonds: `i` and `i+2`
/// each hold 30% of `i+5`.
fn load() -> FactDb {
    let mut db = FactDb::new();
    let n = 24i64;
    db.add_facts("company", (0..n).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    let mut own = Vec::new();
    for i in 0..n - 1 {
        own.push(vec![Value::Int(i), Value::Int(i + 1), Value::Float(0.6)]);
    }
    for i in 0..n - 5 {
        own.push(vec![Value::Int(i), Value::Int(i + 5), Value::Float(0.3)]);
        own.push(vec![
            Value::Int(i + 2),
            Value::Int(i + 5),
            Value::Float(0.3),
        ]);
    }
    db.add_facts("own", own).unwrap();
    db
}

/// One new ownership edge closing the chain into a cycle, and one deleted
/// chain edge whose consequences partly survive through the diamonds.
fn update() -> Update {
    Update {
        inserts: vec![(
            "own".into(),
            vec![Value::Int(23), Value::Int(0), Value::Float(0.7)],
        )],
        deletes: vec![(
            "own".into(),
            vec![Value::Int(3), Value::Int(4), Value::Float(0.6)],
        )],
    }
}

/// `Some(value)` for each expected span record.
fn records<const N: usize>(values: [usize; N]) -> [Option<i64>; N] {
    values.map(|v| Some(v as i64))
}

/// Run one engine call under a collector and check that the registry
/// deltas, the root span named `root` and its children all equal the
/// `RunStats` the call returns.
fn observed(root: &str, call: impl FnOnce() -> RunStats) -> RunStats {
    let before = telemetry::snapshot();
    let collector = Collector::install();
    let stats = call();
    let spans = collector.finish();
    let after = telemetry::snapshot();
    let p = &stats.profile;

    // Strata are the source; the run totals are their sums.
    assert_eq!(stats.strata, p.strata.len(), "{root}");
    let sum = |f: fn(&StratumProfile) -> usize| p.strata.iter().map(f).sum::<usize>();
    assert_eq!(
        [
            sum(|s| s.iterations),
            sum(|s| s.derived_facts),
            sum(|s| s.duplicates_rejected),
            sum(|s| s.nulls_minted),
        ],
        [
            stats.iterations,
            stats.derived_facts,
            stats.duplicates_rejected,
            stats.nulls_created,
        ],
        "{root}: strata sums"
    );

    // Registry: every `chase.*` counter moved by exactly its stats value.
    let termination = format!("chase.termination.{}", stats.termination);
    let mut want = vec![
        ("chase.runs", 1),
        ("chase.facts_derived", stats.derived_facts),
        ("chase.duplicates_rejected", stats.duplicates_rejected),
        ("chase.nulls_created", stats.nulls_created),
        ("chase.shards_spawned", p.shards_spawned),
        ("chase.prov.edges", p.prov_edges),
        ("chase.prov.parents", p.prov_parents),
        (termination.as_str(), 1),
    ];
    if root == "chase.update" {
        want.extend([
            ("chase.update.runs", 1),
            ("chase.update.inserted", p.update_inserted),
            ("chase.update.deleted", p.update_deleted),
            ("chase.update.overdeleted", p.update_overdeleted),
            ("chase.update.rederived", p.update_rederived),
            ("chase.update.fallbacks", p.update_fallbacks),
        ]);
    }
    let want: BTreeMap<String, i64> = want
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(k, n)| (k.to_string(), n as i64))
        .collect();
    let got: BTreeMap<String, i64> = after
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("chase."))
        .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
        .filter(|&(_, d)| d != 0)
        .collect();
    assert_eq!(got, want, "{root}: registry deltas");
    let hist = |m: &MetricsSnapshot| {
        m.histograms
            .get("chase.iterations_per_run")
            .map_or((0, 0.0), |h| (h.count(), h.mean() * h.count() as f64))
    };
    let ((n0, sum0), (n1, sum1)) = (hist(&before), hist(&after));
    assert_eq!(n1 - n0, 1, "{root}: one histogram observation per call");
    assert_eq!((sum1 - sum0).round() as usize, stats.iterations, "{root}");

    // Spans: the root's records, one `chase.stratum` child per stratum and
    // one `chase.rule` leaf per evaluated rule.
    assert_eq!(spans.len(), 1, "{root}");
    let span = &spans[0];
    assert_eq!(span.name, root);
    let rec = |n: &SpanNode, keys: [&str; 4]| keys.map(|k| n.counter(k));
    assert_eq!(
        rec(span, ["derived", "duplicates", "nulls", "shards"]),
        records([
            stats.derived_facts,
            stats.duplicates_rejected,
            stats.nulls_created,
            p.shards_spawned,
        ]),
        "{root}: root span records"
    );
    let children = |name: &str| -> Vec<&SpanNode> {
        span.children.iter().filter(|c| c.name == name).collect()
    };
    let strata = children("chase.stratum");
    assert_eq!(strata.len(), p.strata.len(), "{root}");
    for (node, sp) in strata.into_iter().zip(&p.strata) {
        assert_eq!(node.detail, sp.stratum.to_string());
        assert_eq!(
            rec(node, ["iterations", "derived", "duplicates", "nulls"]),
            records([
                sp.iterations,
                sp.derived_facts,
                sp.duplicates_rejected,
                sp.nulls_minted,
            ]),
            "{root}: stratum {}",
            sp.stratum
        );
    }
    let ran: Vec<_> = p.rules.iter().filter(|r| r.evaluations > 0).collect();
    let leaves = children("chase.rule");
    assert_eq!(leaves.len(), ran.len(), "{root}");
    for (node, rp) in leaves.into_iter().zip(ran) {
        assert_eq!(node.detail, rp.head);
        assert_eq!(
            rec(node, ["evals", "delta_evals", "bindings", "emitted"]),
            records([
                rp.evaluations,
                rp.delta_evaluations,
                rp.bindings_enumerated,
                rp.facts_emitted,
            ]),
            "{root}: rule {}",
            rp.rule
        );
    }
    stats
}

#[test]
fn chase_counters_agree_across_stats_registry_and_spans() {
    let two_strata = format!("{CONTROL} {REACH}");
    let mut materialized = None;
    for threads in [1, 4] {
        let engine = build(&two_strata, threads, threads > 1);
        let mut db = load();
        let stats = observed("chase.run", || engine.run(&mut db).unwrap());
        assert_eq!(stats.strata, 2);
        assert_eq!(stats.profile.shards_spawned > 0, threads > 1, "t{threads}");
        assert!(stats.nulls_created > 0 && stats.duplicates_rejected > 0);
        materialized = Some((engine, db));
    }

    // An exact aggregate with inserts takes the rebuild fallback.
    let (engine, mut db) = materialized.unwrap();
    let stats = observed("chase.update", || {
        engine.apply_update(&mut db, update()).unwrap()
    });
    assert_eq!(stats.profile.update_fallbacks, 1);
    assert!(stats.profile.prov_edges > 0);

    // Without it, the update runs DRed over the recorded provenance.
    let engine = build(CONTROL, 4, true);
    let mut db = load();
    observed("chase.run", || engine.run(&mut db).unwrap());
    let stats = observed("chase.update", || {
        engine.apply_update(&mut db, update()).unwrap()
    });
    let p = &stats.profile;
    assert_eq!(
        (p.update_inserted, p.update_deleted, p.update_fallbacks),
        (1, 1, 0)
    );
    assert!(p.update_overdeleted > 0 && p.update_rederived > 0);
}
