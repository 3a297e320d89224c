//! Engine configuration, annotation loading and bookkeeping tests that
//! exercise the public API end to end (complementing the in-module unit
//! tests).

use kgm_common::{KgmError, Value};
use kgm_pgstore::PropertyGraph;
use kgm_vadalog::{parse_program, to_source, Engine, EngineConfig, FactDb, SourceRegistry};
use std::sync::Arc;

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
        .collect()
}

#[test]
fn max_iterations_cap_stops_long_chains() {
    // A chain of length 1000 needs ~1000 iterations to close transitively;
    // capping at 5 leaves the closure incomplete but terminates cleanly.
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            max_iterations: 5,
            ..Default::default()
        },
    )
    .unwrap();
    let edges: Vec<Vec<Value>> = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect();
    let mut db = FactDb::new();
    db.add_facts("edge", edges).unwrap();
    let stats = engine.run(&mut db).unwrap();
    assert_eq!(stats.iterations, 5);
    // Paths of length ≤ ~6 exist; the full closure (20100 pairs) does not.
    assert!(db.len("path") < 20_100);
    assert!(db.contains("path", &[Value::Int(0), Value::Int(1)]));
    // The truncation is reported, with the stop watermark.
    assert_eq!(stats.termination, kgm_vadalog::Termination::IterationCap);
    assert_eq!(stats.stopped_stratum, 0);
    assert_eq!(stats.stopped_iteration, 5);
}

#[test]
fn fact_cap_reports_resource_exhaustion() {
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            max_facts: 50,
            strict: true,
            ..Default::default()
        },
    )
    .unwrap();
    let edges: Vec<Vec<Value>> = (0..40i64)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect();
    let mut db = FactDb::new();
    db.add_facts("edge", edges).unwrap();
    let err = engine.run(&mut db).unwrap_err();
    assert!(matches!(err, KgmError::ResourceExhausted(_)));
}

#[test]
fn fact_cap_error_names_the_fact_count() {
    let program = parse_program("p(X) -> q(X, N). q(X, N) -> p(N).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            max_facts: 100,
            strict: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mut db = FactDb::new();
    db.add_facts("p", ints(&[&[1]])).unwrap();
    let err = engine.run(&mut db).unwrap_err();
    match err {
        KgmError::ResourceExhausted(msg) => {
            assert!(msg.contains("fact cap"), "{msg}");
            assert!(msg.contains("facts"), "{msg}");
            assert!(
                msg.contains("max_facts 100"),
                "must name the configured cap: {msg}"
            );
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn delta_watermarks_cover_facts_inserted_mid_iteration() {
    // Regression test for the semi-naive bookkeeping: watermarks are
    // advanced to the relation lengths *before* the iteration's new facts
    // are inserted, so facts landing mid-iteration (derived by an earlier
    // rule in the same pass) must still be seen by every rule's delta in
    // the next iteration. A chain of rules feeding each other within one
    // stratum exercises exactly that path.
    let src = r#"
        seed(X) -> a(X).
        a(X), Y = X + 1 -> b(Y).
        b(X), Y = X * 10 -> c(Y).
        c(X), b(Y), X == Y * 10 -> d(X, Y).
    "#;
    let engine = Engine::new(parse_program(src).unwrap()).unwrap();
    let (db, stats) = engine
        .run_with_facts(&[("seed", ints(&[&[1], &[2]]))])
        .unwrap();
    // seed {1,2} → a {1,2} → b {2,3} → c {20,30} → d {(20,2),(30,3)}.
    // The d rule joins c (inserted in a later iteration than b) against b;
    // if a watermark skipped the mid-iteration inserts, d would be empty.
    assert_eq!(db.len("a"), 2);
    assert_eq!(db.len("b"), 2);
    assert_eq!(db.len("c"), 2);
    assert!(db.contains("d", &[Value::Int(20), Value::Int(2)]));
    assert!(db.contains("d", &[Value::Int(30), Value::Int(3)]));
    assert_eq!(stats.derived_facts, 8);
    // Nothing may be double-derived: every delta covers each fact once, so
    // the only duplicates come from genuinely re-derivable tuples (none
    // here).
    assert_eq!(stats.duplicates_rejected, 0);
}

#[test]
fn chase_profile_reports_per_stratum_and_per_rule_counters() {
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::new(program).unwrap();
    let edges: Vec<Vec<Value>> = (0..10i64)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect();
    let (_, stats) = engine.run_with_facts(&[("edge", edges)]).unwrap();

    // Totals line up with the per-stratum breakdown.
    assert_eq!(stats.profile.strata.len(), stats.strata);
    let strata_iters: usize = stats.profile.strata.iter().map(|s| s.iterations).sum();
    assert_eq!(strata_iters, stats.iterations);
    let strata_derived: usize = stats.profile.strata.iter().map(|s| s.derived_facts).sum();
    assert_eq!(strata_derived, stats.derived_facts);
    let strata_dups: usize = stats
        .profile
        .strata
        .iter()
        .map(|s| s.duplicates_rejected)
        .sum();
    assert_eq!(strata_dups, stats.duplicates_rejected);

    // Per-rule counters: both rules ran, the recursive one under deltas.
    assert_eq!(stats.profile.rules.len(), 2);
    let copy = &stats.profile.rules[0];
    let rec = &stats.profile.rules[1];
    assert_eq!(copy.head, "path");
    assert!(copy.evaluations >= 1);
    assert_eq!(copy.facts_emitted, 10, "one path per edge");
    assert!(
        rec.delta_evaluations >= 1,
        "recursion runs delta-restricted"
    );
    assert!(rec.bindings_enumerated >= rec.facts_emitted);
    // The transitive closure of a 10-chain has 55 pairs; 10 were copies.
    assert_eq!(stats.derived_facts, 55);
    assert!(stats.elapsed_ms >= 0.0);
    assert!(stats.profile.strata[0].elapsed_ms >= 0.0);
}

#[test]
fn stratum_null_counts_sum_to_the_run_total() {
    let engine =
        Engine::new(parse_program("b(X) -> c(X, N). c(X, N) -> d(N, X).").unwrap()).unwrap();
    let (_, stats) = engine
        .run_with_facts(&[("b", ints(&[&[1], &[2]]))])
        .unwrap();
    assert!(stats.nulls_created >= 2);
    let nulls_by_stratum: usize = stats.profile.strata.iter().map(|s| s.nulls_minted).sum();
    assert_eq!(nulls_by_stratum, stats.nulls_created);
}

#[test]
fn annotation_driven_inputs_load_from_a_registered_graph() {
    // The Example 4.2/4.4 mechanics end to end: a program whose inputs are
    // declared as @input annotations against a named graph.
    let src = r#"
        company(C, _) -> controls(C, C).
        controls(X, Z), own(_, Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        @input(company, nodes, "kg", "Company", "name").
        @input(own, edges, "kg", "OWNS", "percentage").
        @output(controls).
    "#;
    let program = parse_program(src).unwrap();
    let engine = Engine::new(program).unwrap();

    let mut g = PropertyGraph::new();
    let a = g
        .add_node(["Company"], vec![("name".to_string(), Value::str("a"))])
        .unwrap();
    let b = g
        .add_node(["Company"], vec![("name".to_string(), Value::str("b"))])
        .unwrap();
    g.add_edge(
        a,
        b,
        "OWNS",
        vec![("percentage".to_string(), Value::Float(0.9))],
    )
    .unwrap();
    let (ao, bo) = (g.node_oid(a), g.node_oid(b));

    let mut registry = SourceRegistry::new();
    registry.add_graph("kg", Arc::new(g));
    let mut db = FactDb::new();
    let loaded = engine.load_inputs(&registry, &mut db).unwrap();
    assert_eq!(loaded, 3, "2 companies + 1 ownership fact");
    engine.run(&mut db).unwrap();
    assert!(db.contains("controls", &[Value::Oid(ao), Value::Oid(bo)]));
}

#[test]
fn facts_after_separates_input_from_derived() {
    let program = parse_program("a(X) -> b(X). b(X) -> a(X).").unwrap();
    let engine = Engine::new(program).unwrap();
    let mut db = FactDb::new();
    db.add_facts("a", ints(&[&[1], &[2]])).unwrap();
    db.add_facts("b", ints(&[&[9]])).unwrap();
    let a_mark = db.len("a");
    let b_mark = db.len("b");
    engine.run(&mut db).unwrap();
    // Derived: b gains 1,2; a gains 9.
    let new_b = db.facts_after("b", b_mark);
    assert_eq!(new_b.len(), 2);
    let new_a = db.facts_after("a", a_mark);
    assert_eq!(new_a, vec![vec![Value::Int(9)]]);
    // Past-the-end start yields nothing; unknown predicates yield nothing.
    assert!(db.facts_after("b", 1000).is_empty());
    assert!(db.facts_after("zzz", 0).is_empty());
}

#[test]
fn printed_program_runs_identically() {
    // to_source → parse → run must agree with the original run.
    let src = r#"
        n(1). n(2). n(3). n(4).
        n(X), X mod 2 == 0 -> even(X).
        n(X), not even(X) -> odd(X).
        even(X), S = sum(X, <X>) -> total(S).
    "#;
    let p1 = parse_program(src).unwrap();
    let (printed, parseable) = to_source(&p1);
    assert!(parseable);
    let p2 = parse_program(&printed).unwrap();
    let run = |p| {
        let engine = Engine::new(p).unwrap();
        let mut db = FactDb::new();
        engine.run(&mut db).unwrap();
        (db.facts("even"), db.facts("odd"), db.facts("total"))
    };
    assert_eq!(run(p1), run(p2));
}

#[test]
fn multiple_strata_execute_in_order() {
    // Three strata: base → negation → aggregation over the negation result.
    let src = r#"
        item(1). item(2). item(3). flagged(2).
        item(X), not flagged(X) -> clean(X).
        clean(X), N = count(<X>) -> clean_count(N).
    "#;
    let engine = Engine::new(parse_program(src).unwrap()).unwrap();
    let mut db = FactDb::new();
    let stats = engine.run(&mut db).unwrap();
    assert!(stats.strata >= 3, "strata = {}", stats.strata);
    assert_eq!(db.facts("clean_count"), vec![vec![Value::Int(2)]]);
}

#[test]
fn missing_registry_source_is_a_clean_error() {
    let program = parse_program(r#"@input(p, table, "nowhere", "t"). p(X) -> q(X)."#).unwrap();
    let engine = Engine::new(program).unwrap();
    let registry = SourceRegistry::new();
    let mut db = FactDb::new();
    assert!(matches!(
        engine.load_inputs(&registry, &mut db),
        Err(KgmError::NotFound(_))
    ));
}
