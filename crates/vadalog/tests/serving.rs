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
//! 2. **Pinned answers match the oracle**: aggregate answers served
//!    through the query front-end on a pin agree with that pin's own
//!    frozen rows, and response stamps (`epoch`, `complete`) match the pin.
//!
//! Runs at 1/4/8 reader threads (override with `KGM_SERVE_READERS=1,4`),
//! provenance on and off (on: deletions take the DRed path; off: the
//! rebuild fallback), with batch-first shrinking. `KGM_PROP_CASES` /
//! `KGM_PROP_SEED` work as in the other differential suites.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kgm_common::Value;
use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, gen_updates, shrink_case};
use kgm_vadalog::{
    canonical_fact_lines, canonical_facts_rows, naive_chase_updated, Engine, EngineConfig, FactDb,
    GenCase, GenConfig, OracleConfig, Program, ServingLayer, Term, Update, UpdateBatch,
};

type Case = (GenCase, Vec<UpdateBatch>);

/// One reader-side snapshot record: which epoch the pin claimed to be and
/// what it actually contained.
struct Observation {
    epoch: u64,
    canon: Vec<String>,
    detail: Option<String>,
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

/// Compute the expected canonical fact set of every epoch the schedule will
/// publish: epoch 0 is empty, epoch 1 is the initial materialization,
/// epoch 1+i is the state after batch i — each via the naive oracle.
fn expected_epochs(
    program: &Program,
    edb: &[(String, Vec<Value>)],
    batches: &[UpdateBatch],
) -> Result<Vec<Vec<String>>, CaseError> {
    let mut expected = vec![Vec::new()];
    let mut edb: Vec<(String, Vec<Value>)> = edb.to_vec();
    let initial = naive_chase_updated(program, &edb, &[], &[], &OracleConfig::default())
        .map_err(|e| CaseError::fail(format!("initial oracle: {e}")))?;
    expected.push(canonical_facts_rows(&initial));
    for (bi, batch) in batches.iter().enumerate() {
        let oracle = naive_chase_updated(
            program,
            &edb,
            &batch.deletes,
            &batch.inserts,
            &OracleConfig::default(),
        )
        .map_err(|e| CaseError::fail(format!("batch {bi} oracle: {e}")))?;
        expected.push(canonical_facts_rows(&oracle));
        edb.retain(|f| !batch.deletes.contains(f));
        for fact in &batch.inserts {
            if !edb.contains(fact) {
                edb.push(fact.clone());
            }
        }
    }
    Ok(expected)
}

/// One reader observation: pin, dump, and cross-check the query front-end
/// against the pin's own frozen rows. Returns the record plus any
/// internal-inconsistency detail it noticed.
fn observe(layer: &ServingLayer) -> Observation {
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
                s.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        seen.push(observe(&layer));
                        std::thread::yield_now();
                    }
                    // One final observation after the writer is done: every
                    // reader must be able to see the last published epoch.
                    seen.push(observe(&layer));
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
            writer_pins.push(observe(&layer));
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
                writer_pins.push(observe(&layer));
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
