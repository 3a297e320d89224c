//! Satellite suites for the epoch serving layer:
//!
//! 1. **Pin stability + reclamation stress** — a reader pins an early epoch,
//!    the writer pushes 120 update batches through
//!    [`Engine::apply_update_serving`]; the pinned snapshot's dump and query
//!    answers must stay byte-identical throughout, at most two epochs may be
//!    resident at any time (the pinned one and the current one — every
//!    intermediate epoch must be reclaimed the moment it is retired), and
//!    dropping the pin must release the old epoch's memory.
//! 2. **Plan-cache differential property** — for fuzzed programs and update
//!    streams, every query answered through the per-epoch plan cache
//!    (first call = cold miss, later calls = hits) must be bit-identical to
//!    a cache-bypassing evaluation of the same text, on every epoch; a new
//!    epoch must start with a cold cache (invalidation-by-construction).
//! 3. **Termination marker regression** — an epoch published from a
//!    budget-truncated chase must stamp `complete == false` (with the stop
//!    reason) into every query response, and a later complete epoch must
//!    clear it, while old pins keep the truncated marker.

use kgm_common::{OidSpace, Value};
use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, gen_updates, shrink_case};
use kgm_vadalog::{
    parse_program, Engine, EngineConfig, FactDb, GenCase, GenConfig, Program, ServingLayer, Term,
    Termination, Update, UpdateBatch,
};

fn tc_engine(provenance: bool, max_iterations: usize) -> Engine {
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    Engine::with_config(
        program,
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            provenance,
            max_iterations,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

fn edge(a: i64, b: i64) -> (String, Vec<Value>) {
    ("edge".to_string(), vec![Value::Int(a), Value::Int(b)])
}

/// Satellite 1: pinned answers are byte-stable across 120 live update
/// batches and unpinned epochs are reclaimed as they are retired.
#[test]
fn pinned_epoch_is_byte_stable_and_retired_epochs_are_reclaimed() {
    let engine = tc_engine(true, 1_000_000);
    let mut db = FactDb::new();
    for i in 0..8 {
        let (p, t) = edge(i, i + 1);
        db.insert_ref(&p, &t).unwrap();
    }
    let layer = ServingLayer::new();
    engine.run_serving(&mut db, &layer).unwrap();

    let pin = layer.pin();
    assert_eq!(pin.id(), 1);
    let baseline_dump = pin.fact_dump();
    let baseline_bytes = pin.approx_bytes();
    let probes = [
        "count path",
        "rel edge",
        "sum edge 1",
        "point path(0, 8)",
        "path edge/edge",
        "cypher (a:v)-[e:edge]->(b:v) return (a,b)",
    ];
    let baseline_answers: Vec<_> = probes.iter().map(|q| pin.query(q).unwrap()).collect();

    // 120 batches of live churn: inserts wander over a 16-node vertex set,
    // and every third batch also retracts an existing edge (exercising the
    // DRed deletion path under the pin).
    let mut rng = Rng::seed_from_u64(0xEDB7_2022);
    let mut live: Vec<(String, Vec<Value>)> = (0..8).map(|i| edge(i, i + 1)).collect();
    for bi in 0..120 {
        let a = rng.gen_range(0..16i64);
        let b = rng.gen_range(0..16i64);
        let inserts = vec![edge(a, b)];
        let deletes = if bi % 3 == 2 && live.len() > 4 {
            let victim = rng.gen_range(0..live.len() as i64) as usize;
            vec![live.remove(victim)]
        } else {
            Vec::new()
        };
        for f in &inserts {
            if !live.contains(f) {
                live.push(f.clone());
            }
        }
        engine
            .apply_update_serving(&mut db, Update { inserts, deletes }, &layer)
            .unwrap();

        // Exactly two epochs resident: the pinned one and the current one.
        // Every intermediate epoch must already be gone.
        assert_eq!(
            layer.resident_epochs(),
            2,
            "batch {bi}: retired epochs must be reclaimed while one pin is held"
        );
        let current = layer.pin();
        assert_eq!(
            layer.resident_bytes(),
            baseline_bytes + current.approx_bytes(),
            "batch {bi}: resident bytes must be exactly pinned + current"
        );
        assert_eq!(current.id(), 2 + bi as u64);

        // The pinned epoch answers from its frozen fact set, bit for bit.
        assert_eq!(pin.fact_dump(), baseline_dump, "batch {bi}: dump drifted");
        for (q, want) in probes.iter().zip(&baseline_answers) {
            assert_eq!(
                &pin.query(q).unwrap(),
                want,
                "batch {bi}: pinned answer for `{q}` drifted"
            );
        }
    }
    assert_eq!(pin.approx_bytes(), baseline_bytes);

    // Dropping the pin releases the old epoch: after the next publish's
    // registry sweep only the current epoch is resident.
    drop(pin);
    engine
        .apply_update_serving(
            &mut db,
            Update {
                inserts: vec![edge(100, 101)],
                deletes: vec![],
            },
            &layer,
        )
        .unwrap();
    assert_eq!(layer.resident_epochs(), 1);
    assert_eq!(layer.resident_bytes(), layer.pin().approx_bytes());
}

// ---------------------------------------------------------------------------
// Satellite 2: plan-cache differential property suite
// ---------------------------------------------------------------------------

type Case = (GenCase, Vec<UpdateBatch>);

fn drain_facts(case: &GenCase) -> (Program, Vec<(String, Vec<Value>)>) {
    let mut program = case.program();
    let mut edb: Vec<(String, Vec<Value>)> = Vec::new();
    for atom in std::mem::take(&mut program.facts) {
        let tuple: Vec<Value> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        let fact = (atom.predicate.clone(), tuple);
        if !edb.contains(&fact) {
            edb.push(fact);
        }
    }
    (program, edb)
}

/// Render `v` as a `point`-query literal, if it is addressable in query
/// text (labelled nulls are not — their payloads are mint-order details).
fn literal(v: &Value) -> Option<String> {
    match v {
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(format!("{f:?}")),
        Value::Bool(b) => Some(b.to_string()),
        Value::Str(s) if !s.contains('"') => Some(format!("\"{s}\"")),
        Value::Oid(o) if o.space() == OidSpace::Ground => Some(format!("#{}", o.payload())),
        _ => None,
    }
}

/// Every query the cache answered must be bit-identical to a cache-free
/// evaluation of the same text on the same pin.
fn cache_matches_cold(case: &Case) -> CaseResult {
    let (case, batches) = case;
    let (program, edb) = drain_facts(case);
    let engine = Engine::with_config(
        program,
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            provenance: true,
            ..EngineConfig::default()
        },
    )
    .map_err(|e| CaseError::reject(format!("engine admission: {e}")))?;
    let mut db = FactDb::new();
    for (p, t) in &edb {
        db.insert_ref(p, t)
            .map_err(|e| CaseError::fail(format!("edb load: {e}")))?;
    }
    let layer = ServingLayer::new();
    engine
        .run_serving(&mut db, &layer)
        .map_err(|e| CaseError::fail(format!("initial run: {e}")))?;

    for bi in 0..=batches.len() {
        let pin = layer.pin();
        // A fresh epoch must start with a cold cache — a stale hit from a
        // previous epoch would be an invalidation bug.
        let (h0, m0) = pin.plan_cache_stats();
        if (h0, m0) != (0, 0) {
            return Err(CaseError::fail(format!(
                "epoch {}: plan cache not cold at first pin (hits {h0}, misses {m0})",
                pin.id()
            )));
        }
        let mut queries: Vec<String> = Vec::new();
        for pred in pin.predicates() {
            queries.push(format!("rel {pred}"));
            queries.push(format!("count {pred}"));
            queries.push(format!("sum {pred} 0"));
            queries.push(format!("min {pred} 0"));
            queries.push(format!("max {pred} 0"));
            if let Some(row) = pin.rows(pred).first() {
                if let Some(lits) = row.iter().map(literal).collect::<Option<Vec<_>>>() {
                    queries.push(format!("point {pred}({})", lits.join(", ")));
                }
            }
            if pin.arity(pred) >= Some(2) {
                queries.push(format!("path {pred}"));
                queries.push(format!("path {pred}/{pred}"));
                queries.push(format!("path ~{pred}|{pred}"));
                queries.push(format!("cypher (a:v)-[e:{pred}]->(b:v) return (a,b)"));
            }
        }
        for q in &queries {
            let cold = pin
                .query_uncached(q)
                .map_err(|e| CaseError::fail(format!("epoch {} `{q}` cold: {e}", pin.id())))?;
            let miss = pin
                .query(q)
                .map_err(|e| CaseError::fail(format!("epoch {} `{q}` miss: {e}", pin.id())))?;
            let hit = pin
                .query(q)
                .map_err(|e| CaseError::fail(format!("epoch {} `{q}` hit: {e}", pin.id())))?;
            if miss != cold || hit != cold {
                return Err(CaseError::fail(format!(
                    "epoch {}: `{q}` diverges between cold / first (miss) / cached (hit) \
                     evaluation:\n  cold: {cold:?}\n  miss: {miss:?}\n  hit:  {hit:?}",
                    pin.id()
                )));
            }
        }
        // Each query text was asked twice through the cache: one miss, one hit.
        let n = queries.len() as u64;
        if pin.plan_cache_stats() != (n, n) {
            return Err(CaseError::fail(format!(
                "epoch {}: expected {n} hits / {n} misses, got {:?}",
                pin.id(),
                pin.plan_cache_stats()
            )));
        }
        if bi < batches.len() {
            let batch = &batches[bi];
            engine
                .apply_update_serving(
                    &mut db,
                    Update {
                        inserts: batch.inserts.clone(),
                        deletes: batch.deletes.clone(),
                    },
                    &layer,
                )
                .map_err(|e| CaseError::fail(format!("batch {bi}: {e}")))?;
        }
    }
    Ok(())
}

fn gen(rng: &mut Rng) -> Case {
    let case = gen_case(rng, &GenConfig::default());
    let n = rng.gen_range(1..4i64) as usize;
    let batches = gen_updates(rng, &case, n);
    (case, batches)
}

fn shrink(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if !case.1.is_empty() {
        let mut head = case.clone();
        head.1.pop();
        out.push(head);
    }
    for p in shrink_case(&case.0) {
        out.push((p, case.1.clone()));
    }
    out
}

#[test]
fn plan_cache_hits_are_bit_identical_to_cold_plans_across_epochs() {
    check(
        "serving_stress::plan_cache_hits_are_bit_identical_to_cold_plans_across_epochs",
        &Config::with_cases(64),
        gen,
        shrink,
        cache_matches_cold,
    );
}

// ---------------------------------------------------------------------------
// Satellite 3: Termination-aware serving
// ---------------------------------------------------------------------------

/// A budget-truncated chase publishes its epoch with the partial-result
/// marker, and every response on that epoch carries it; a later complete
/// epoch clears it while old pins keep it.
#[test]
fn truncated_chase_marks_responses_partial() {
    // One iteration of the path stratum cannot close an 8-edge chain.
    let truncated = tc_engine(false, 1);
    let mut db = FactDb::new();
    for i in 0..8 {
        let (p, t) = edge(i, i + 1);
        db.insert_ref(&p, &t).unwrap();
    }
    let layer = ServingLayer::new();
    let stats = truncated.run_serving(&mut db, &layer).unwrap();
    assert_eq!(stats.termination, Termination::IterationCap);

    let partial_pin = layer.pin();
    assert!(!partial_pin.is_complete());
    assert_eq!(partial_pin.termination(), Termination::IterationCap);
    let resp = partial_pin.query("count path").unwrap();
    assert!(
        !resp.complete,
        "a truncated epoch must not serve answers marked complete"
    );
    assert_eq!(resp.termination, Termination::IterationCap);
    // The truncation is real: the full closure has 36 path facts.
    assert!(resp.rows[0][0].as_f64().unwrap() < 36.0);

    // Re-materializing to fixpoint publishes a complete epoch…
    let full = tc_engine(false, 1_000_000);
    let mut db2 = FactDb::new();
    for i in 0..8 {
        let (p, t) = edge(i, i + 1);
        db2.insert_ref(&p, &t).unwrap();
    }
    let stats = full.run_serving(&mut db2, &layer).unwrap();
    assert!(stats.termination.is_complete());
    let resp = layer.pin().query("count path").unwrap();
    assert!(resp.complete);
    assert_eq!(resp.termination, Termination::Complete);
    assert_eq!(resp.rows, vec![vec![Value::Int(36)]]);

    // …while the old pin keeps serving its truncated epoch, still marked.
    let resp = partial_pin.query("count path").unwrap();
    assert!(!resp.complete);
    assert_eq!(resp.epoch, 1);
}

/// A graceful fact-cap truncation during `apply_update_serving` must also
/// surface its marker (the update path shares the publish contract).
#[test]
fn truncated_update_marks_responses_partial() {
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            max_facts: 12,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut db = FactDb::new();
    for i in 0..3 {
        let (p, t) = edge(i, i + 1);
        db.insert_ref(&p, &t).unwrap();
    }
    let layer = ServingLayer::new();
    let stats = engine.run_serving(&mut db, &layer).unwrap();
    assert!(
        stats.termination.is_complete(),
        "3-edge closure fits the cap"
    );
    assert!(layer.pin().is_complete());

    // Growing the chain past the fact cap truncates the update run.
    let stats = engine
        .apply_update_serving(
            &mut db,
            Update {
                inserts: (3..10).map(|i| edge(i, i + 1)).collect(),
                deletes: vec![],
            },
            &layer,
        )
        .unwrap();
    assert_eq!(stats.termination, Termination::FactCap);
    let resp = layer.pin().query("count path").unwrap();
    assert!(
        !resp.complete,
        "an epoch published from a truncated update must be marked partial"
    );
    assert_eq!(resp.termination, Termination::FactCap);
    assert_eq!(resp.epoch, 2);
}
