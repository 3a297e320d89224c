//! Differential conformance suite: every generated (program, database) pair
//! is executed by the deliberately naive reference chase
//! ([`kgm_vadalog::oracle`], on its row-oriented [`kgm_vadalog::RowDb`]) and
//! by the optimized columnar engine — sequentially and through the sharded
//! parallel path at 2 and 8 workers — and the four derived fact sets must
//! coincide **modulo a renaming of labelled nulls** (the oracle and the
//! engine mint nulls in different orders, so raw OID equality is too
//! strong; canonical isomorphism is exactly the relation the chase
//! guarantees). Oracle and engine also differ in *physical* storage — plain
//! value rows vs interned per-column ids — so value packing and columnar
//! dedup are themselves under differential test.
//!
//! Programs come from [`kgm_vadalog::genprog`], which covers joins,
//! recursion, stratified negation, comparisons, arithmetic, existential
//! heads, explicit Skolem functors, and exact + monotonic aggregation.
//! Failures shrink through `prop`'s minimizer (dropping rules, then facts)
//! and the panic message prints the full shrunken program source plus a
//! `KGM_PROP_SEED=... KGM_PROP_CASES=...` repro line, so a divergence is a
//! self-contained bug report.
//!
//! Knobs: `KGM_PROP_CASES` overrides the case count (ci.sh runs a 64-case
//! smoke at a fixed seed), `KGM_PROP_SEED` pins the seed.

use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, shrink_case};
use kgm_vadalog::{
    canonical_diff_oracle, naive_chase, Engine, EngineConfig, FactDb, GenCase, GenConfig,
};

/// Engine configuration for a differential run: explicit thread count,
/// `min_parallel_batch: 1` so even one-tuple deltas take the sharded path,
/// and no wall-clock deadline (the ambient `KGM_DEADLINE_MS` must not leak
/// into the comparison — a truncated run legitimately disagrees with the
/// oracle).
fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        min_parallel_batch: 1,
        deadline_ms: None,
        ..EngineConfig::default()
    }
}

/// Run the optimized engine over the case's program at `threads` workers.
fn engine_run(case: &GenCase, threads: usize) -> Result<FactDb, CaseError> {
    let engine = Engine::with_config(case.program(), config(threads))
        .map_err(|e| CaseError::reject(format!("engine admission: {e}")))?;
    let mut db = FactDb::new();
    let stats = engine
        .run(&mut db)
        .map_err(|e| CaseError::fail(format!("engine({threads} threads) error: {e}")))?;
    if !stats.termination.is_complete() {
        return Err(CaseError::fail(format!(
            "engine({threads} threads) truncated: {:?}",
            stats.termination
        )));
    }
    Ok(db)
}

/// The differential property: oracle vs engine at 1, 2, and 8 threads.
fn differential(case: &GenCase) -> CaseResult {
    let oracle =
        naive_chase(&case.program()).map_err(|e| CaseError::fail(format!("oracle error: {e}")))?;
    for threads in [1usize, 2, 8] {
        let db = engine_run(case, threads)?;
        if let Some(diff) = canonical_diff_oracle(&oracle, &db) {
            return Err(CaseError::fail(format!(
                "oracle and engine({threads} threads) disagree \
                 (canonical facts, - oracle / + engine):\n{diff}"
            )));
        }
    }
    Ok(())
}

/// 256 seeded cases at the default knobs. This is the conformance gate the
/// issue asks for: naive row-oriented oracle == sequential columnar engine
/// == parallel engine (2 and 8 workers) up to labelled-null renaming.
#[test]
fn oracle_engine_and_parallel_chase_agree() {
    check(
        "differential::oracle_engine_and_parallel_chase_agree",
        &Config::with_cases(256),
        |rng: &mut Rng| gen_case(rng, &GenConfig::default()),
        shrink_case,
        |case| differential(case),
    );
}

/// A smaller pass at cranked-up knobs: bigger rule sets, wider relations,
/// more facts. Catches interactions (e.g. aggregate-after-join across
/// strata) that stay rare at default sizes.
#[test]
fn differential_holds_at_larger_program_sizes() {
    let cfg = GenConfig {
        max_edb: 4,
        max_facts: 12,
        max_rules: 8,
        max_arity: 4,
        int_domain: 8,
    };
    check(
        "differential::differential_holds_at_larger_program_sizes",
        &Config::with_cases(64),
        |rng: &mut Rng| gen_case(rng, &cfg),
        shrink_case,
        |case| differential(case),
    );
}
