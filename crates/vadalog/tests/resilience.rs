//! Chaos/termination property suite for the resilient chase: every governed
//! budget, cooperative cancellation, and deterministic fault injection must
//! yield either a structured `KgmError` or a prefix-consistent partial
//! result with the right [`Termination`] — never a process abort, never a
//! corrupted `FactDb`.
//!
//! The fault-injection config is process-global (`kgm_runtime::fault`), and
//! the test harness runs this binary's tests concurrently in one process,
//! so *every* test here serializes on [`LOCK`] — otherwise a test arming
//! `chase.insert:1.0` would inject into its neighbours' engines.

use kgm_common::{KgmError, Value};
use kgm_runtime::fault::{self, FaultConfig};
use kgm_runtime::sync::CancelToken;
use kgm_runtime::Mutex;
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, RunStats, Termination};

/// Serializes the whole file (see module docs). Non-poisoning, so a failing
/// test does not cascade.
static LOCK: Mutex<()> = Mutex::new(());

const CHAIN: &str = "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).";

fn chain_edges(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect()
}

fn engine(threads: usize, cfg: EngineConfig) -> Engine {
    Engine::with_config(
        parse_program(CHAIN).unwrap(),
        EngineConfig {
            threads,
            min_parallel_batch: 1,
            ..cfg
        },
    )
    .unwrap()
}

fn run_chain(threads: usize, n: i64, cfg: EngineConfig) -> Result<(FactDb, RunStats), KgmError> {
    engine(threads, cfg).run_with_facts(&[("edge", chain_edges(n))])
}

/// Stable fingerprint of a whole database: predicate → sorted tuple lines.
fn fingerprint(db: &FactDb) -> String {
    let mut out = String::new();
    for p in db.predicates() {
        let mut rows: Vec<String> = db.facts_iter(&p).map(|t| format!("{t:?}")).collect();
        rows.sort();
        out.push_str(&format!("{p}:{}\n", rows.join(";")));
    }
    out
}

/// Every predicate of `partial` must hold an insertion-order prefix of the
/// same predicate in `complete` — the graceful-degradation contract.
fn assert_prefix(partial: &FactDb, complete: &FactDb) {
    for p in partial.predicates() {
        let got: Vec<Vec<Value>> = partial.facts_iter(&p).collect();
        let full: Vec<Vec<Value>> = complete.facts_iter(&p).collect();
        assert!(
            got.len() <= full.len(),
            "predicate {p}: partial has {} facts, complete only {}",
            got.len(),
            full.len()
        );
        assert_eq!(
            got,
            &full[..got.len()],
            "predicate {p}: partial db is not an insertion-order prefix"
        );
    }
}

#[test]
fn complete_runs_report_complete_with_watermark() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let (db, stats) = run_chain(threads, 20, EngineConfig::default()).unwrap();
        assert_eq!(
            stats.termination,
            Termination::Complete,
            "threads={threads}"
        );
        assert!(stats.termination.is_complete());
        assert_eq!(stats.stopped_stratum, stats.strata - 1);
        assert!(stats.stopped_iteration > 0);
        assert_eq!(db.len("path"), 210);
    }
}

#[test]
fn iteration_cap_yields_prefix_consistent_partial_results() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let (complete, _) = run_chain(threads, 64, EngineConfig::default()).unwrap();
        let (partial, stats) = run_chain(
            threads,
            64,
            EngineConfig {
                max_iterations: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            stats.termination,
            Termination::IterationCap,
            "threads={threads}"
        );
        assert_eq!(stats.stopped_iteration, 3);
        assert!(partial.len("path") < complete.len("path"));
        assert_prefix(&partial, &complete);
    }
}

#[test]
fn zero_deadline_stops_immediately_with_partial_db() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let (complete, _) = run_chain(threads, 32, EngineConfig::default()).unwrap();
        let (partial, stats) = run_chain(
            threads,
            32,
            EngineConfig {
                deadline_ms: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            stats.termination,
            Termination::Deadline,
            "threads={threads}"
        );
        assert_eq!(stats.stopped_stratum, 0);
        assert_eq!(stats.derived_facts, 0, "stopped before any derivation");
        assert_eq!(partial.len("edge"), 32, "input facts are kept");
        assert_prefix(&partial, &complete);
        // Truncated runs report only the strata that actually executed.
        assert_eq!(stats.strata, stats.profile.strata.len());
    }
}

#[test]
fn strict_deadline_errors_and_names_the_budget() {
    let _g = LOCK.lock();
    fault::set(None);
    let err = run_chain(
        1,
        16,
        EngineConfig {
            deadline_ms: Some(0),
            strict: true,
            ..Default::default()
        },
    )
    .unwrap_err();
    match err {
        KgmError::ResourceExhausted(msg) => {
            assert!(msg.contains("deadline"), "{msg}")
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn fact_cap_keeps_the_crossing_batch_as_a_prefix() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let (complete, _) = run_chain(threads, 40, EngineConfig::default()).unwrap();
        let (partial, stats) = run_chain(
            threads,
            40,
            EngineConfig {
                max_facts: 60,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stats.termination, Termination::FactCap, "threads={threads}");
        assert!(partial.total_facts() > 60, "the crossing batch is kept");
        assert!(partial.total_facts() < complete.total_facts());
        assert_prefix(&partial, &complete);
    }
}

#[test]
fn memory_budget_degrades_gracefully_and_errors_in_strict_mode() {
    let _g = LOCK.lock();
    fault::set(None);
    let (partial, stats) = run_chain(
        1,
        16,
        EngineConfig {
            max_bytes: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(stats.termination, Termination::MemoryBudget);
    assert_eq!(partial.len("edge"), 16, "inputs survive");
    let err = run_chain(
        1,
        16,
        EngineConfig {
            max_bytes: Some(1),
            strict: true,
            ..Default::default()
        },
    )
    .unwrap_err();
    match err {
        KgmError::ResourceExhausted(msg) => {
            assert!(msg.contains("memory budget"), "{msg}")
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_stops_before_any_derivation() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let token = CancelToken::new();
        token.cancel();
        let (db, stats) = run_chain(
            threads,
            16,
            EngineConfig {
                cancel: Some(token.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            stats.termination,
            Termination::Cancelled,
            "threads={threads}"
        );
        assert_eq!(stats.derived_facts, 0);
        assert_eq!(db.len("path"), 0);
        // Strict mode surfaces the dedicated error variant.
        let err = run_chain(
            threads,
            16,
            EngineConfig {
                cancel: Some(token.clone()),
                strict: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, KgmError::Cancelled(_)), "got {err:?}");
    }
}

#[test]
fn mid_run_cancellation_keeps_a_prefix_consistent_db() {
    let _g = LOCK.lock();
    fault::set(None);
    for threads in [1, 4] {
        let (complete, _) = run_chain(threads, 256, EngineConfig::default()).unwrap();
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                token.cancel();
            })
        };
        let (partial, stats) = run_chain(
            threads,
            256,
            EngineConfig {
                cancel: Some(token),
                ..Default::default()
            },
        )
        .unwrap();
        canceller.join().unwrap();
        // Timing-dependent: the run either finished first or was cancelled —
        // both must leave a consistent database.
        assert!(
            matches!(
                stats.termination,
                Termination::Complete | Termination::Cancelled
            ),
            "threads={threads}: {:?}",
            stats.termination
        );
        assert_prefix(&partial, &complete);
        if stats.termination == Termination::Complete {
            assert_eq!(fingerprint(&partial), fingerprint(&complete));
        }
    }
}

#[test]
fn injected_insert_fault_is_a_structured_error_with_consistent_db() {
    let _g = LOCK.lock();
    fault::set(Some(FaultConfig::parse("chase.insert:1.0:7").unwrap()));
    let eng = engine(1, EngineConfig::default());
    let mut db = FactDb::new();
    db.add_facts("edge", chain_edges(16)).unwrap();
    let err = eng.run(&mut db).unwrap_err();
    fault::set(None);
    match err {
        KgmError::Internal(msg) => {
            assert!(msg.contains("injected fault at chase.insert"), "{msg}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // Nothing from the failed batch landed; the db is still the input
    // prefix of the fault-free run.
    let (complete, _) = run_chain(1, 16, EngineConfig::default()).unwrap();
    assert_prefix(&db, &complete);
}

#[test]
fn probabilistic_insert_faults_never_corrupt_results() {
    let _g = LOCK.lock();
    let (complete, _) = {
        fault::set(None);
        run_chain(1, 24, EngineConfig::default()).unwrap()
    };
    for seed in 0..8u64 {
        fault::set(Some(FaultConfig {
            site: "chase.insert".to_string(),
            prob: 0.02,
            seed,
        }));
        match run_chain(1, 24, EngineConfig::default()) {
            Ok((db, stats)) => {
                // No fault fired on this seed's schedule: bit-identical.
                assert_eq!(fingerprint(&db), fingerprint(&complete), "seed={seed}");
                assert_eq!(stats.termination, Termination::Complete);
            }
            Err(KgmError::Internal(msg)) => {
                assert!(msg.contains("injected fault"), "seed={seed}: {msg}")
            }
            Err(other) => panic!("seed={seed}: unexpected error {other:?}"),
        }
    }
    fault::set(None);
}

#[test]
fn injected_fault_schedule_is_deterministic() {
    let _g = LOCK.lock();
    let run_once = || {
        fault::set(Some(FaultConfig::parse("chase.insert:0.1:42").unwrap()));
        let res = run_chain(1, 24, EngineConfig::default());
        fault::set(None);
        match res {
            Ok((db, _)) => format!("ok:{}", fingerprint(&db)),
            Err(e) => format!("err:{e}"),
        }
    };
    assert_eq!(run_once(), run_once(), "re-arming must replay the schedule");
}

#[test]
fn shard_worker_panic_is_caught_and_names_the_rule() {
    let _g = LOCK.lock();
    // Silence the default panic hook for the intentional worker panic.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fault::set(Some(FaultConfig::parse("chase.shard:1.0:1").unwrap()));
    let res = run_chain(4, 32, EngineConfig::default());
    fault::set(None);
    std::panic::set_hook(hook);
    match res {
        Err(KgmError::Internal(msg)) => {
            assert!(msg.contains("shard worker panicked"), "{msg}");
            assert!(msg.contains("rule"), "{msg}");
            assert!(msg.contains("injected fault at chase.shard"), "{msg}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }
}

#[test]
fn csv_import_fault_site_fires() {
    let _g = LOCK.lock();
    fault::set(None);
    let mut g = kgm_pgstore::PropertyGraph::new();
    let a = g.add_node(["N"], vec![]).unwrap();
    let b = g.add_node(["N"], vec![]).unwrap();
    g.add_edge(a, b, "E", vec![]).unwrap();
    let (nodes, edges) = kgm_pgstore::csv::export(&g);
    // Disarmed: round-trips fine.
    assert!(kgm_pgstore::csv::import(&nodes, &edges).is_ok());
    fault::set(Some(FaultConfig::parse("csv.import:1.0:3").unwrap()));
    let res = kgm_pgstore::csv::import(&nodes, &edges);
    fault::set(None);
    match res {
        Err(KgmError::Internal(msg)) => {
            assert!(msg.contains("injected fault at csv.import"), "{msg}")
        }
        Err(other) => panic!("expected Internal, got {other:?}"),
        Ok(_) => panic!("expected the armed csv.import fault to fire"),
    }
}

#[test]
fn disarmed_faults_leave_runs_bit_identical() {
    let _g = LOCK.lock();
    fault::set(None);
    let (a, sa) = run_chain(1, 32, EngineConfig::default()).unwrap();
    // Armed-but-never-firing (prob 0) must not perturb anything either.
    fault::set(Some(FaultConfig::parse("*:0.0:9").unwrap()));
    let (b, sb) = run_chain(1, 32, EngineConfig::default()).unwrap();
    fault::set(None);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(sa.derived_facts, sb.derived_facts);
    assert_eq!(sb.profile.faults_injected, 0);
}

#[test]
fn cancel_polls_are_counted_only_when_configured() {
    let _g = LOCK.lock();
    fault::set(None);
    let (_, plain) = run_chain(1, 64, EngineConfig::default()).unwrap();
    assert_eq!(
        plain.profile.cancel_polls, 0,
        "no token, no deadline → no polls"
    );
    let (_, with_deadline) = run_chain(
        1,
        64,
        EngineConfig {
            deadline_ms: Some(60_000),
            ..Default::default()
        },
    )
    .unwrap();
    // A generous deadline never trips; polling is counter-gated, so tiny
    // runs may legitimately record zero polls — the invariant is only that
    // the run still completes untruncated.
    assert_eq!(with_deadline.termination, Termination::Complete);
}
