//! Property suite for the parallel sharded chase: over randomly generated
//! warded programs and fact sets, `KGM_THREADS=4`- and `KGM_THREADS=8`-shaped
//! runs (`min_parallel_batch: 1` so even tiny deltas shard) must produce a
//! [`FactDb`] bit-identical to the sequential `KGM_THREADS=1` run — the same
//! facts in the same insertion order, the same labelled-null OIDs, and the
//! same stratum/iteration schedule. The suite pins `threads` through
//! [`EngineConfig`] rather than the process-global `KGM_THREADS` variable
//! (tests run concurrently; the env var is read by `EngineConfig::default`),
//! which exercises exactly the code path the variable selects.
//!
//! A final test re-checks the `kgm_runtime::par::map_shards` contract the
//! merge relies on: a worker panic must propagate to the caller instead of
//! being swallowed with partial results.

use kgm_common::Value;
use kgm_runtime::prop::{check, shrink_vec, CaseResult, Config};
use kgm_runtime::prop_assert_eq;
use kgm_runtime::rng::Rng;
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, RunStats};

/// Warded program templates the generator draws from. Each exercises a
/// different slice of the parallel path: pure-join recursion, existential
/// null minting, explicit Skolem terms, monotonic aggregation, stratified
/// negation (two strata, so stratum order is observable), and a worker
/// computing a value no stored tuple holds.
const TEMPLATES: &[&str] = &[
    // Transitive closure: pure joins, large deltas, heavy deduplication.
    "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
    // Existential head + recursion through the minted null's ward.
    "edge(X,Y) -> conn(X,Y). conn(X,Y) -> hub(X, N). hub(X, N), edge(X,Z) -> hub(Z, N).",
    // Explicit Skolem terms: OIDs depend on evaluation order of the frontier.
    "edge(X,Y), S = skolem(\"e\", X, Y) -> tag(X, S). tag(X, S), edge(X,Z) -> tag2(Z, S).",
    // Monotonic aggregation: per-group msum state mutates as bindings arrive.
    "edge(X,Y), V = msum(1, <Y>), V > 1 -> busy(X, V). busy(X, V), edge(X,Z) -> busy2(Z).",
    // Two strata: negation forces `path` to close before `lonely` starts.
    "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z). \
     node(X), not path(X, X) -> lonely(X).",
    // A worker's step computes `Float(y)`, which the store does not hold
    // (every edge endpoint is an `Int`), so it reaches the writer as a
    // pending value; `eq` keeps the `Float`, and the second rule joins it
    // with the equal `Int` endpoints through its class.
    "edge(X,Y), Z = Y * 1.0 -> eq(X, Z). eq(X, Z), edge(Z, W) -> hop(X, W).",
];

/// One generated case: a template index and raw (unmodded) edge endpoints.
type CaseInput = (usize, Vec<(usize, usize)>);

fn gen_case(rng: &mut Rng) -> CaseInput {
    let template = rng.gen_range(0usize..TEMPLATES.len());
    let m = rng.gen_range(0usize..40);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0usize..12), rng.gen_range(0usize..12)))
        .collect();
    (template, edges)
}

/// Shrink by dropping edges; the program template stays fixed.
fn shrink_case(input: &CaseInput) -> Vec<CaseInput> {
    let (t, edges) = input;
    shrink_vec(edges).into_iter().map(|e| (*t, e)).collect()
}

fn run_case(template: usize, edges: &[(usize, usize)], threads: usize) -> (FactDb, RunStats) {
    let program = parse_program(TEMPLATES[template]).unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            threads,
            min_parallel_batch: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut db = FactDb::new();
    let facts: Vec<Vec<Value>> = edges
        .iter()
        .map(|&(a, b)| vec![Value::Int(a as i64), Value::Int(b as i64)])
        .collect();
    db.add_facts("edge", facts).unwrap();
    let nodes: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Int(i)]).collect();
    db.add_facts("node", nodes).unwrap();
    let stats = engine.run(&mut db).unwrap();
    (db, stats)
}

/// Everything observable about a [`FactDb`], insertion order included.
/// Labelled nulls and Skolem OIDs print with their payloads, so any
/// divergence in minting order shows up here, and every value prints with
/// its type, so an `Int` and an equal `Float` differ.
fn fingerprint(db: &FactDb) -> Vec<(String, Vec<Vec<String>>)> {
    db.predicates()
        .into_iter()
        .map(|p| {
            let rows = db.facts_iter(&p);
            let rows = rows.map(|t| t.iter().map(Value::to_text).collect());
            (p.clone(), rows.collect())
        })
        .collect()
}

#[test]
fn sharded_chase_matches_sequential_on_generated_programs() {
    check(
        "sharded_chase_matches_sequential_on_generated_programs",
        &Config::with_cases(48),
        gen_case,
        shrink_case,
        |(template, edges)| -> CaseResult {
            let (seq_db, seq_stats) = run_case(*template, edges, 1);
            for threads in [4usize, 8] {
                let (par_db, par_stats) = run_case(*template, edges, threads);
                prop_assert_eq!(fingerprint(&seq_db), fingerprint(&par_db));
                prop_assert_eq!(seq_stats.derived_facts, par_stats.derived_facts);
                prop_assert_eq!(seq_stats.nulls_created, par_stats.nulls_created);
                prop_assert_eq!(seq_stats.duplicates_rejected, par_stats.duplicates_rejected);
                // The stratum schedule (order, per-stratum iteration and
                // derivation counts) must be untouched by sharding.
                let schedule = |s: &RunStats| {
                    s.profile
                        .strata
                        .iter()
                        .map(|st| (st.stratum, st.iterations, st.derived_facts, st.nulls_minted))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(schedule(&seq_stats), schedule(&par_stats));
            }
            // And the sequential baseline must really be sequential.
            prop_assert_eq!(seq_stats.profile.shards_spawned, 0);
            Ok(())
        },
    );
}

/// The delta sharding must not depend on *which* thread count is picked:
/// any two parallel widths agree with each other, not just with 1.
#[test]
fn thread_count_is_invisible_across_widths() {
    check(
        "thread_count_is_invisible_across_widths",
        &Config::with_cases(16),
        gen_case,
        shrink_case,
        |(template, edges)| -> CaseResult {
            let (db2, _) = run_case(*template, edges, 2);
            let (db7, _) = run_case(*template, edges, 7);
            let (db8, _) = run_case(*template, edges, 8);
            prop_assert_eq!(fingerprint(&db2), fingerprint(&db7));
            prop_assert_eq!(fingerprint(&db2), fingerprint(&db8));
            Ok(())
        },
    );
}

/// The chase's shard merge loop joins every worker before touching
/// the writer state; that is only sound because `map_shards` re-raises
/// worker panics instead of returning partial output.
#[test]
fn map_shards_propagates_worker_panics() {
    let items: Vec<usize> = (0..64).collect();
    let result = std::panic::catch_unwind(|| {
        kgm_runtime::par::map_shards(&items, 4, |shard| {
            if shard.contains(&40) {
                panic!("injected shard failure");
            }
            shard.len()
        })
    });
    let err = result.expect_err("worker panic must reach the caller");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("shard worker panicked"),
        "panic payload should name the shard contract, got {msg:?}"
    );
}
