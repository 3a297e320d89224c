//! Fuzzed snapshot-consistency suite for the epoch serving layer — the
//! tentpole gate of the serving PR.
//!
//! Each generated case is an interleaved writer/reader schedule: the writer
//! materializes a fuzzed program ([`kgm_vadalog::genprog`]) through
//! [`Engine::run_serving`] and then streams fuzzed update batches
//! ([`kgm_vadalog::genprog::gen_updates`]) through
//! [`Engine::apply_update_serving`], publishing an epoch after every step,
//! while N reader threads concurrently pin epochs and dump/query them. The
//! property has two halves:
//!
//! 1. **No torn reads**: every reader observation (epoch id + canonical
//!    fact dump) must be *exactly* some published epoch's logical fact set
//!    — never a half-applied update or a partially swept DRed deletion.
//!    The expected fact set per epoch is computed up front by the naive
//!    oracle ([`naive_chase_updated`]) replaying the same EDB evolution.
//! 2. **Pinned answers match the oracle**: on every pin, per predicate,
//!    `count`, `rel`, `sum`/`min`/`max` of every column, a `point` of one
//!    stored and one absent tuple and, at arity ≥ 2, three `path` shapes
//!    and a Cypher edge match must give what a naive evaluation over the
//!    oracle's rows of the same epoch gives. Answers compare as sets (as
//!    multisets for Cypher, sums within 1e-9 relative); rows holding
//!    labelled nulls or Skolem values compare through the canonical
//!    labelling of the epoch's facts. Response stamps (`epoch`,
//!    `complete`) must match the pin.
//!
//! Runs at 1/4/8 reader threads (override with `KGM_SERVE_READERS=1,4`),
//! provenance on and off (on: deletions take the DRed path; off: the
//! rebuild fallback), with batch-first shrinking. `KGM_PROP_CASES` /
//! `KGM_PROP_SEED` work as in the other differential suites.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kgm_common::{FxHashSet, OidSpace, Value};
use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, gen_updates, shrink_case};
use kgm_vadalog::{
    canonical_fact_lines, canonical_facts_rows, naive_chase_updated, Engine, EngineConfig,
    EpochPin, FactDb, GenCase, GenConfig, OracleConfig, Program, RowDb, ServingLayer, Term, Update,
    UpdateBatch,
};

type Case = (GenCase, Vec<UpdateBatch>);

/// One reader-side snapshot record: which epoch the pin claimed to be and
/// what it actually contained.
struct Observation {
    epoch: u64,
    canon: Vec<String>,
    detail: Option<String>,
}

/// What a reader of one epoch must see, from the oracle's rows of it.
struct Expected {
    /// The canonical fact set.
    canon: Vec<String>,
    /// Every query an observation asks, with how its answer compares.
    queries: Vec<(String, Shape)>,
    /// The naive answers to `queries`.
    answers: Answers,
}

/// How a query's answer compares.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// A set of rows.
    Set,
    /// A set of projected node pairs.
    Path,
    /// A multiset of projected node pairs.
    Cypher,
    /// One float, within 1e-9 relative.
    Sum,
}

/// Query answers in comparable form.
#[derive(Debug)]
struct Answers {
    /// Ground answer rows as canonical lines, sorted.
    ground: Vec<String>,
    /// The canonical lines of the epoch's facts plus every answer row that
    /// holds a labelled null or a Skolem value, so both sides share one
    /// labelling. Empty when no answer row holds one.
    invented: Vec<String>,
    /// The sums, in query order.
    sums: Vec<f64>,
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

fn is_invented(v: &Value) -> bool {
    matches!(v, Value::Oid(o) if o.space() != OidSpace::Ground)
}

/// A value as a node of the graph projection, which merges equal values:
/// `Int(3)` and `Float(3.0)` are one node, so numbers compare as floats.
fn node(v: &Value) -> Value {
    match v.as_f64() {
        Some(f) => Value::Float(f),
        None => v.clone(),
    }
}

/// The queries an observation asks of an epoch whose facts are `db`, each
/// with its answer by naive evaluation over those rows.
fn naive_answers(db: &RowDb) -> Vec<(String, Shape, Vec<Vec<Value>>)> {
    let mut out = Vec::new();
    for pred in db.predicates() {
        let rows = db.facts(&pred);
        let arity = rows[0].len();
        let count = vec![vec![Value::Int(rows.len() as i64)]];
        out.push((format!("count {pred}"), Shape::Set, count));
        for col in 0..arity {
            let nums = || rows.iter().filter_map(|r| r[col].as_f64());
            let sum = vec![vec![Value::Float(nums().sum())]];
            out.push((format!("sum {pred} {col}"), Shape::Sum, sum));
            let min = nums().reduce(f64::min).map(|v| vec![Value::Float(v)]);
            out.push((
                format!("min {pred} {col}"),
                Shape::Set,
                min.into_iter().collect(),
            ));
            let max = nums().reduce(f64::max).map(|v| vec![Value::Float(v)]);
            out.push((
                format!("max {pred} {col}"),
                Shape::Set,
                max.into_iter().collect(),
            ));
        }
        out.push((format!("rel {pred}"), Shape::Set, rows.to_vec()));
        let stored = rows.iter().find(|r| r.iter().all(|v| literal(v).is_some()));
        let absent = vec![Value::str("absent"); arity];
        for tuple in stored.into_iter().chain([&absent]) {
            let lits: Vec<String> = tuple.iter().filter_map(literal).collect();
            let hit = db.contains(&pred, tuple).then(|| tuple.clone());
            let text = format!("point {pred}({})", lits.join(", "));
            out.push((text, Shape::Set, hit.into_iter().collect()));
        }
        if arity >= 2 {
            let edges: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone()])
                .collect();
            let inverse = edges.iter().map(|e| vec![e[1].clone(), e[0].clone()]);
            let either: Vec<Vec<Value>> = edges.iter().cloned().chain(inverse).collect();
            let twice: Vec<Vec<Value>> = edges
                .iter()
                .flat_map(|a| {
                    edges
                        .iter()
                        .filter(|b| a[1] == b[0])
                        .map(|b| vec![a[0].clone(), b[1].clone()])
                })
                .collect();
            out.push((format!("path {pred}"), Shape::Path, edges.clone()));
            out.push((format!("path {pred}/{pred}"), Shape::Path, twice));
            out.push((format!("path ~{pred}|{pred}"), Shape::Path, either));
            let cypher = format!("cypher (a:v)-[e:{pred}]->(b:v) return (a,b)");
            out.push((cypher, Shape::Cypher, edges));
        }
    }
    out
}

/// Fold answers into comparable form; `facts` is the epoch's fact set.
fn compare_form(
    mut facts: Vec<(String, Vec<Value>)>,
    answered: Vec<(&str, Shape, Vec<Vec<Value>>)>,
) -> Answers {
    let (mut ground, mut invented, mut sums) = (Vec::new(), Vec::new(), Vec::new());
    for (text, shape, mut rows) in answered {
        match shape {
            Shape::Sum => {
                sums.push(
                    rows.first()
                        .and_then(|r| r.first())
                        .map_or(f64::NAN, |v| v.as_f64().unwrap_or(f64::NAN)),
                );
                continue;
            }
            Shape::Path | Shape::Cypher => {
                rows = rows.iter().map(|r| r.iter().map(node).collect()).collect();
            }
            Shape::Set => {}
        }
        if shape != Shape::Cypher {
            let mut seen = FxHashSet::default();
            rows.retain(|r| seen.insert(r.clone()));
        }
        for row in rows {
            if row.iter().any(is_invented) {
                invented.push((text.to_string(), row));
            } else {
                ground.push((text.to_string(), row));
            }
        }
    }
    let ground = canonical_fact_lines(ground);
    let invented = if invented.is_empty() {
        Vec::new()
    } else {
        facts.extend(invented);
        canonical_fact_lines(facts)
    };
    Answers {
        ground,
        invented,
        sums,
    }
}

/// The oracle's view of one epoch.
fn expect(db: &RowDb) -> Expected {
    let facts: Vec<(String, Vec<Value>)> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.facts(&p).iter().map(move |t| (p.clone(), t.clone())))
        .collect();
    let naive = naive_answers(db);
    let queries = naive
        .iter()
        .map(|(q, shape, _)| (q.clone(), *shape))
        .collect();
    let answered = naive
        .iter()
        .map(|(q, shape, rows)| (q.as_str(), *shape, rows.clone()))
        .collect();
    Expected {
        canon: canonical_facts_rows(db),
        queries,
        answers: compare_form(facts, answered),
    }
}

/// Ask `pin` every query of `want` and report the first answer that differs
/// from the oracle's.
fn answers_differ(pin: &EpochPin, want: &Expected) -> Option<String> {
    let mut answered = Vec::with_capacity(want.queries.len());
    for (q, shape) in &want.queries {
        match pin.query(q) {
            Ok(resp) if resp.epoch != pin.id() || resp.complete != pin.is_complete() => {
                return Some(format!(
                    "`{q}` stamped epoch {} complete {}, pin is epoch {} complete {}",
                    resp.epoch,
                    resp.complete,
                    pin.id(),
                    pin.is_complete()
                ));
            }
            Ok(resp) => answered.push((q.as_str(), *shape, resp.rows)),
            Err(e) => return Some(format!("`{q}` errored: {e}")),
        }
    }
    let got = compare_form(pin.fact_dump(), answered);
    let sums = want.queries.iter().filter(|(_, s)| *s == Shape::Sum);
    for ((q, _), (g, w)) in sums.zip(got.sums.iter().zip(&want.answers.sums)) {
        // Written so that a NaN on either side is never close.
        let close = (g - w).abs() <= 1e-9 * g.abs().max(w.abs());
        if !close {
            return Some(format!("`{q}` answered {g}, the oracle {w}"));
        }
    }
    for (what, g, w) in [
        ("ground", &got.ground, &want.answers.ground),
        ("invented-value", &got.invented, &want.answers.invented),
    ] {
        if g != w {
            let missing: Vec<&String> = w.iter().filter(|l| !g.contains(l)).collect();
            let extra: Vec<&String> = g.iter().filter(|l| !w.contains(l)).collect();
            return Some(format!(
                "{what} answers differ from the oracle's: missing {missing:?}, extra {extra:?}"
            ));
        }
    }
    None
}

fn reader_counts() -> Vec<usize> {
    match std::env::var("KGM_SERVE_READERS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .collect(),
        Err(_) => vec![1, 4, 8],
    }
}

fn config(provenance: bool) -> EngineConfig {
    EngineConfig {
        // Writer concurrency is not under test here (the parallel-chase and
        // incremental suites own it) — reader threads are the concurrency.
        threads: 1,
        deadline_ms: None,
        provenance,
        ..EngineConfig::default()
    }
}

/// Split a generated case into a fact-free program plus its ordered EDB
/// (same rationale as the incremental suite: `Engine::run` re-asserts
/// program facts, and the oracle needs base facts in insertion order).
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

/// Compute what every epoch the schedule will publish must show: epoch 0
/// is empty, epoch 1 is the initial materialization, epoch 1+i is the state
/// after batch i — each via the naive oracle.
fn expected_epochs(
    program: &Program,
    edb: &[(String, Vec<Value>)],
    batches: &[UpdateBatch],
) -> Result<Vec<Expected>, CaseError> {
    let mut expected = vec![expect(&RowDb::new())];
    let mut edb: Vec<(String, Vec<Value>)> = edb.to_vec();
    let initial = naive_chase_updated(program, &edb, &[], &[], &OracleConfig::default())
        .map_err(|e| CaseError::fail(format!("initial oracle: {e}")))?;
    expected.push(expect(&initial));
    for (bi, batch) in batches.iter().enumerate() {
        let oracle = naive_chase_updated(
            program,
            &edb,
            &batch.deletes,
            &batch.inserts,
            &OracleConfig::default(),
        )
        .map_err(|e| CaseError::fail(format!("batch {bi} oracle: {e}")))?;
        expected.push(expect(&oracle));
        edb.retain(|f| !batch.deletes.contains(f));
        for fact in &batch.inserts {
            if !edb.contains(fact) {
                edb.push(fact.clone());
            }
        }
    }
    Ok(expected)
}

/// One reader observation: pin, dump, cross-check the query front-end
/// against the pin's own frozen rows, and check every query's answer
/// against the oracle's for the pinned epoch. Returns the record plus the
/// first inconsistency it noticed.
fn observe(layer: &ServingLayer, expected: &[Expected]) -> Observation {
    let pin = layer.pin();
    let canon = canonical_fact_lines(pin.fact_dump());
    let mut detail = None;
    // Aggregate answers must come from the same frozen fact set as the
    // dump, and every response must carry the pin's own stamps.
    if let Some(pred) = pin.predicates().first().cloned() {
        match pin.query(&format!("count {pred}")) {
            Ok(resp) => {
                let want = vec![vec![Value::Int(pin.rows(&pred).len() as i64)]];
                if resp.rows != want {
                    detail = Some(format!(
                        "count {pred} answered {:?}, pin rows say {want:?}",
                        resp.rows
                    ));
                } else if resp.epoch != pin.id() || resp.complete != pin.is_complete() {
                    detail = Some(format!(
                        "response stamped epoch {} complete {}, pin is epoch {} complete {}",
                        resp.epoch,
                        resp.complete,
                        pin.id(),
                        pin.is_complete()
                    ));
                }
            }
            Err(e) => detail = Some(format!("count {pred} errored: {e}")),
        }
    }
    // A pin of an unknown epoch, or of a torn fact set, fails on its dump.
    if let Some(want) = expected.get(pin.id() as usize) {
        if detail.is_none() && canon == want.canon {
            detail = answers_differ(&pin, want);
        }
    }
    Observation {
        epoch: pin.id(),
        canon,
        detail,
    }
}

/// The property: run the schedule with `readers` concurrent reader threads
/// and assert every observation matches the oracle's fact set for the epoch
/// it pinned.
fn schedule_is_consistent(case: &Case, readers: usize, provenance: bool) -> CaseResult {
    let (case, batches) = case;
    let (program, edb) = drain_facts(case);
    let expected = expected_epochs(&program, &edb, batches)?;
    let engine = Engine::with_config(program, config(provenance))
        .map_err(|e| CaseError::reject(format!("engine admission: {e}")))?;
    let mut db = FactDb::new();
    for (p, t) in &edb {
        db.insert_ref(p, t)
            .map_err(|e| CaseError::fail(format!("edb load: {e}")))?;
    }

    let layer = ServingLayer::new();
    let stop = Arc::new(AtomicBool::new(false));
    let observations: Vec<Vec<Observation>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let layer = layer.clone();
                let stop = Arc::clone(&stop);
                let expected = &expected;
                s.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        seen.push(observe(&layer, expected));
                        std::thread::yield_now();
                    }
                    // One final observation after the writer is done: every
                    // reader must be able to see the last published epoch.
                    seen.push(observe(&layer, expected));
                    seen
                })
            })
            .collect();

        // The writer runs on this thread, interleaved with the readers. It
        // pins each epoch right after publishing it (it is the only
        // publisher, so that pin is deterministic), guaranteeing every
        // epoch gets at least one verified observation even when the
        // free-running readers never land on it.
        let write = (|| -> Result<Vec<Observation>, CaseError> {
            let mut writer_pins = Vec::new();
            let stats = engine
                .run_serving(&mut db, &layer)
                .map_err(|e| CaseError::fail(format!("initial run: {e}")))?;
            if !stats.termination.is_complete() {
                return Err(CaseError::fail(format!(
                    "initial run truncated: {:?}",
                    stats.termination
                )));
            }
            writer_pins.push(observe(&layer, &expected));
            for (bi, batch) in batches.iter().enumerate() {
                let stats = engine
                    .apply_update_serving(
                        &mut db,
                        Update {
                            inserts: batch.inserts.clone(),
                            deletes: batch.deletes.clone(),
                        },
                        &layer,
                    )
                    .map_err(|e| CaseError::fail(format!("batch {bi}: {e}")))?;
                if !stats.termination.is_complete() {
                    return Err(CaseError::fail(format!(
                        "batch {bi} truncated: {:?}",
                        stats.termination
                    )));
                }
                writer_pins.push(observe(&layer, &expected));
            }
            Ok(writer_pins)
        })();
        stop.store(true, Ordering::Release);
        let mut observations: Vec<Vec<Observation>> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        write.map(|writer_pins| {
            observations.push(writer_pins);
            observations
        })
    })?;

    // The last reader list is the writer's own per-epoch pins: it must
    // have observed every epoch 1..=last exactly once, in order.
    let last_epoch = (expected.len() - 1) as u64;
    let writer_epochs: Vec<u64> = observations
        .last()
        .expect("writer pins present")
        .iter()
        .map(|o| o.epoch)
        .collect();
    if writer_epochs != (1..=last_epoch).collect::<Vec<u64>>() {
        return Err(CaseError::fail(format!(
            "writer pinned epochs {writer_epochs:?} immediately after publishing, \
             expected 1..={last_epoch}"
        )));
    }
    for (ri, reader) in observations.iter().enumerate() {
        for obs in reader {
            if let Some(detail) = &obs.detail {
                return Err(CaseError::fail(format!(
                    "reader {ri}/{readers} (provenance={provenance}): pin of epoch {} \
                     is internally inconsistent: {detail}",
                    obs.epoch
                )));
            }
            let want = expected.get(obs.epoch as usize).ok_or_else(|| {
                CaseError::fail(format!(
                    "reader {ri}/{readers} observed epoch {} but only {} were published",
                    obs.epoch,
                    expected.len()
                ))
            })?;
            let want = &want.canon;
            if &obs.canon != want {
                let missing: Vec<&String> =
                    want.iter().filter(|l| !obs.canon.contains(l)).collect();
                let extra: Vec<&String> = obs.canon.iter().filter(|l| !want.contains(l)).collect();
                return Err(CaseError::fail(format!(
                    "reader {ri}/{readers} (provenance={provenance}) observed a fact set \
                     that is not epoch {}'s (torn read?): missing {missing:?}, extra {extra:?}",
                    obs.epoch
                )));
            }
        }
        let final_epoch = reader.last().map(|o| o.epoch);
        if final_epoch != Some(last_epoch) {
            return Err(CaseError::fail(format!(
                "reader {ri}/{readers}'s post-stop observation pinned epoch {final_epoch:?}, \
                 expected the final epoch {last_epoch} (publication not visible?)"
            )));
        }
    }
    Ok(())
}

fn gen(rng: &mut Rng) -> Case {
    let case = gen_case(rng, &GenConfig::default());
    let n = rng.gen_range(1..5i64) as usize;
    let batches = gen_updates(rng, &case, n);
    (case, batches)
}

/// Shrink batches before the program, exactly as the incremental suite does
/// — most consistency violations localize to one update.
fn shrink(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if case.1.len() > 1 {
        let mut tail = case.clone();
        tail.1.remove(0);
        out.push(tail);
    }
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
fn readers_observe_only_published_epochs_with_provenance() {
    check(
        "serving::readers_observe_only_published_epochs_with_provenance",
        &Config::with_cases(64),
        gen,
        shrink,
        |case| {
            for readers in reader_counts() {
                schedule_is_consistent(case, readers, true)?;
            }
            Ok(())
        },
    );
}

#[test]
fn readers_observe_only_published_epochs_without_provenance() {
    check(
        "serving::readers_observe_only_published_epochs_without_provenance",
        &Config::with_cases(64),
        gen,
        shrink,
        |case| {
            for readers in reader_counts() {
                schedule_is_consistent(case, readers, false)?;
            }
            Ok(())
        },
    );
}
