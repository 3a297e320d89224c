//! Differential conformance for incremental view maintenance: every
//! generated (program, database) pair gets a fuzzed sequence of EDB update
//! batches, each applied two ways — incrementally through
//! [`kgm_vadalog::Engine::apply_update`] (semi-naive insertion deltas plus
//! DRed over-deletion/re-derivation over recorded provenance) and from
//! scratch by the naive reference chase over the *updated* input
//! ([`kgm_vadalog::naive_chase_updated`]). After **every** batch the two
//! databases must coincide modulo a renaming of labelled nulls, at 1 and 4
//! worker threads.
//!
//! The provenance-off variant pins the other contract: deletions without
//! recorded provenance must take the rebuild fallback and still converge to
//! the same answers.
//!
//! The embedded program facts are drained into an explicit ordered EDB
//! before the first run: `Engine::run` re-asserts program facts on every
//! call, which would silently resurrect deleted ones, and the oracle must
//! see base facts in their original insertion order (monotonic aggregates
//! fold contributions in arrival order, so order is part of the contract).
//!
//! Knobs: `KGM_PROP_CASES` overrides the case count, `KGM_PROP_SEED` pins
//! the seed — a failure prints a copy-pasteable repro like the main
//! differential suite.

use kgm_common::Value;
use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, gen_updates, shrink_case};
use kgm_vadalog::{
    canonical_diff_oracle, naive_chase_updated, Engine, EngineConfig, FactDb, GenCase, GenConfig,
    OracleConfig, Program, Term, Update, UpdateBatch,
};

type Case = (GenCase, Vec<UpdateBatch>);

fn config(threads: usize, provenance: bool) -> EngineConfig {
    EngineConfig {
        threads,
        min_parallel_batch: 1,
        deadline_ms: None,
        provenance,
        ..EngineConfig::default()
    }
}

/// Split a generated case into a fact-free program plus its ordered EDB.
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

/// The property: materialize once, then for each batch compare the
/// incremental database against a from-scratch chase over the updated EDB.
fn incremental_matches_scratch(case: &Case, threads: usize, provenance: bool) -> CaseResult {
    let (case, batches) = case;
    let (program, mut edb) = drain_facts(case);
    let engine = Engine::with_config(program.clone(), config(threads, provenance))
        .map_err(|e| CaseError::reject(format!("engine admission: {e}")))?;
    let mut db = FactDb::new();
    for (p, t) in &edb {
        db.insert_ref(p, t)
            .map_err(|e| CaseError::fail(format!("edb load: {e}")))?;
    }
    let stats = engine
        .run(&mut db)
        .map_err(|e| CaseError::fail(format!("initial run({threads} threads): {e}")))?;
    if !stats.termination.is_complete() {
        return Err(CaseError::fail(format!(
            "initial run truncated: {:?}",
            stats.termination
        )));
    }
    for (bi, batch) in batches.iter().enumerate() {
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: batch.inserts.clone(),
                    deletes: batch.deletes.clone(),
                },
            )
            .map_err(|e| CaseError::fail(format!("batch {bi} ({threads} threads): {e}")))?;
        if !stats.termination.is_complete() {
            return Err(CaseError::fail(format!(
                "batch {bi} truncated: {:?}",
                stats.termination
            )));
        }
        let oracle = naive_chase_updated(
            &program,
            &edb,
            &batch.deletes,
            &batch.inserts,
            &OracleConfig::default(),
        )
        .map_err(|e| CaseError::fail(format!("batch {bi} oracle: {e}")))?;
        if let Some(diff) = canonical_diff_oracle(&oracle, &db) {
            return Err(CaseError::fail(format!(
                "batch {bi}: from-scratch and incremental ({threads} threads, \
                 provenance={provenance}) disagree \
                 (canonical facts, - scratch / + incremental):\n{diff}"
            )));
        }
        // Advance the tracked EDB the way apply_update does: deletes first,
        // then genuinely-new inserts appended in arrival order.
        edb.retain(|f| !batch.deletes.contains(f));
        for fact in &batch.inserts {
            if !edb.contains(fact) {
                edb.push(fact.clone());
            }
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

/// Shrink batches before the program — most divergences localize to one
/// update. Shrunk programs keep the original batches: deleting now-absent
/// facts and inserting into now-unused predicates are both legal no-ops.
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

/// The tentpole conformance gate: ≥128 fuzzed update sequences, each
/// verified after every batch, sequentially and on the sharded parallel
/// path, with provenance recorded (so deletions take the DRed path).
#[test]
fn incremental_updates_match_from_scratch_with_provenance() {
    check(
        "incremental::incremental_updates_match_from_scratch_with_provenance",
        &Config::with_cases(128),
        gen,
        shrink,
        |case| {
            for threads in [1usize, 4] {
                incremental_matches_scratch(case, threads, true)?;
            }
            Ok(())
        },
    );
}

/// With provenance off, deletions cannot be maintained incrementally — the
/// engine must detect that, rebuild, and still agree with the oracle.
#[test]
fn incremental_updates_match_from_scratch_without_provenance() {
    check(
        "incremental::incremental_updates_match_from_scratch_without_provenance",
        &Config::with_cases(128),
        gen,
        shrink,
        |case| {
            for threads in [1usize, 4] {
                incremental_matches_scratch(case, threads, false)?;
            }
            Ok(())
        },
    );
}
