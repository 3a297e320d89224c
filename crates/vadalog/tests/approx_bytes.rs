//! Regression test for [`FactDb::approx_bytes`]: the governor's memory
//! budget is only as honest as this estimate, so it is pinned against a
//! counting global allocator. The test builds a store of realistic shape
//! (mixed string/int columns, enough rows for several dedup-table growths
//! and index builds) and requires the reported footprint to stay within a
//! factor of two of the measured net allocation — tight enough to catch a
//! forgotten structure (the old row-oriented proxy undercounted its dedup
//! set entirely) while leaving room for allocator slack the estimate cannot
//! see. Two tests pin the same bound on a chase that keeps
//! monotonic-aggregate state, and check that the `max_bytes` governor sees
//! that state while the chase runs. One bounds the control chase's heap
//! allocations per derived fact. The last three pin join indexes: one
//! over 100,000 distinct keys must not allocate per key and keeps only its
//! slot table, and a chase builds no index that no join order it evaluates
//! probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kgm_common::{FxHashSet, KgmError, Value};
use kgm_runtime::{Mutex, Rng};
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb, Termination, Update};

/// System allocator wrapper tracking live (allocated minus freed) bytes
/// and the number of allocations and reallocations.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// The allocator count is process-global and the test harness runs tests
/// concurrently, so each test holds this lock while it measures — or it
/// would also count the other tests' allocations. Non-poisoning, so a
/// failing test does not cascade.
static MEASURING: Mutex<()> = Mutex::new(());

#[test]
fn approx_bytes_tracks_measured_allocation_within_2x() {
    let _guard = MEASURING.lock();
    let before = live();
    let mut db = FactDb::new();
    for i in 0..40_000i64 {
        db.insert(
            "holds",
            vec![
                Value::str(format!("C{}", i % 7_000)),
                Value::str(format!("C{}", (i * 31) % 7_000)),
                Value::Int(i),
            ],
        )
        .unwrap();
    }
    let measured = live().saturating_sub(before);
    let approx = db.approx_bytes();
    assert!(
        approx * 2 >= measured,
        "approx_bytes undercounts: approx {approx}, measured {measured}"
    );
    assert!(
        approx <= measured * 2,
        "approx_bytes overcounts: approx {approx}, measured {measured}"
    );
}

/// Same pin with provenance recording on: the `ProvStore` arena, edge
/// index, *and its parent-dedup scratch set* (once omitted from the
/// estimate — the regression this test pins) must all be visible to the
/// governor's memory budget.
#[test]
fn approx_bytes_tracks_allocation_with_provenance_on() {
    let _guard = MEASURING.lock();
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            provenance: true,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let edges: Vec<Vec<Value>> = (0..800i64)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect();

    let before = live();
    let mut db = FactDb::new();
    db.add_facts("edge", edges).unwrap();
    let stats = engine.run(&mut db).unwrap();
    let measured = live().saturating_sub(before);
    let approx = db.approx_bytes();
    assert!(stats.profile.prov_edges > 0, "provenance actually recorded");
    assert!(
        approx * 2 >= measured,
        "approx_bytes undercounts with provenance: approx {approx}, measured {measured}"
    );
    assert!(
        approx <= measured * 2,
        "approx_bytes overcounts with provenance: approx {approx}, measured {measured}"
    );
}

/// Same pin after a real chase run, which additionally builds join indexes
/// and dedup state through the engine's own insert path.
#[test]
fn approx_bytes_tracks_allocation_after_a_chase() {
    let _guard = MEASURING.lock();
    let program =
        parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
    let engine = Engine::with_config(
        program,
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let edges: Vec<Vec<Value>> = (0..800i64)
        .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
        .collect();

    let before = live();
    let mut db = FactDb::new();
    db.add_facts("edge", edges).unwrap();
    engine.run(&mut db).unwrap();
    let measured = live().saturating_sub(before);
    let approx = db.approx_bytes();
    assert!(db.len("path") >= 800, "chase actually ran");
    assert!(
        approx * 2 >= measured,
        "approx_bytes undercounts: approx {approx}, measured {measured}"
    );
    assert!(
        approx <= measured * 2,
        "approx_bytes overcounts: approx {approx}, measured {measured}"
    );
}

/// Example 4.2 (company control, `CONTROL_VADALOG` of the finance crate).
/// Recursive, so its `msum` runs as a monotonic aggregate and keeps its
/// per-group state after the run; a non-recursive `msum` rule would run as
/// an exact aggregate and keep nothing.
const CONTROL: &str = r#"
company(X) -> controls(X, X).
controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y).
@output(controls).
"#;

/// 4,001 companies; each of the first 4,000 holds five distinct stakes.
/// About one stake in seven is a majority (0.6), the rest 0.05–0.30, so
/// control also arises jointly. The chase derives 15,533 `controls` facts
/// and triples the loaded store's `approx_bytes`, aggregate state included.
fn control_inputs() -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let companies = (0..4_001i64).map(|i| vec![Value::Int(i)]).collect();
    let mut rng = Rng::seed_from_u64(0x4_2);
    let mut own = Vec::with_capacity(20_000);
    for z in 0..4_000i64 {
        for k in 0..5i64 {
            // 811 · k stays under 4,001, so the five targets are distinct.
            let y = (z * 37 + k * 811 + 1) % 4_001;
            let w = if rng.gen_bool(0.15) {
                0.6
            } else {
                0.05 + 0.25 * rng.gen_f64()
            };
            own.push(vec![Value::Int(z), Value::Int(y), Value::Float(w)]);
        }
    }
    (companies, own)
}

fn control_engine(config: EngineConfig) -> Engine {
    Engine::with_config(parse_program(CONTROL).unwrap(), config).unwrap()
}

/// Load the control input into a fresh store.
fn control_db() -> FactDb {
    let (companies, own) = control_inputs();
    let mut db = FactDb::new();
    db.add_facts("company", companies).unwrap();
    db.add_facts("own", own).unwrap();
    assert_eq!(db.len("own"), 20_000);
    db
}

fn controls(db: &FactDb) -> FxHashSet<Vec<Value>> {
    db.facts_iter("controls").collect()
}

/// The unbounded control chase: the resulting store and the net bytes
/// allocated to load and chase it.
fn measured_control_chase(provenance: bool) -> (FactDb, usize) {
    let engine = control_engine(EngineConfig {
        threads: 1,
        deadline_ms: None,
        provenance,
        ..EngineConfig::default()
    });
    let before = live();
    let mut db = control_db();
    let stats = engine.run(&mut db).unwrap();
    let measured = live().saturating_sub(before);
    assert_eq!(stats.termination, Termination::Complete);
    (db, measured)
}

/// The monotonic-aggregate state a recursive `msum` keeps (a group per
/// `(controller, target)` pair, a key per counted contributor) is part of
/// the store's footprint, with provenance off and on.
#[test]
fn approx_bytes_counts_recursive_aggregation_state() {
    let _guard = MEASURING.lock();
    for provenance in [false, true] {
        let (db, measured) = measured_control_chase(provenance);
        let approx = db.approx_bytes();
        assert!(
            db.len("controls") > 4_001,
            "control propagates beyond the reflexive pairs"
        );
        assert!(
            approx * 2 >= measured,
            "approx_bytes undercounts (provenance {provenance}): approx {approx}, \
             measured {measured}"
        );
        assert!(
            approx <= measured * 2,
            "approx_bytes overcounts (provenance {provenance}): approx {approx}, \
             measured {measured}"
        );
    }
}

/// A `max_bytes` budget halfway between the loaded and the chased store's
/// `approx_bytes` stops the unbounded control chase: the governor counts
/// the null and aggregate tables the run holds, not only the fact store.
/// Graceful mode keeps a prefix of the unbounded result; strict mode errors
/// naming the budget.
#[test]
fn max_bytes_stops_a_recursive_aggregation_chase() {
    let _guard = MEASURING.lock();
    let (full, _) = measured_control_chase(false);
    let (loaded, chased) = (control_db().approx_bytes(), full.approx_bytes());
    let budget = loaded + (chased - loaded) / 2;
    assert!(
        loaded < budget,
        "the loaded input alone stays under the budget, so the chase starts"
    );
    let bounded = |strict: bool| {
        control_engine(EngineConfig {
            threads: 1,
            deadline_ms: None,
            max_bytes: Some(budget),
            strict,
            ..EngineConfig::default()
        })
    };

    let mut db = control_db();
    let stats = bounded(false).run(&mut db).unwrap();
    assert_eq!(stats.termination, Termination::MemoryBudget);
    let partial = controls(&db);
    let all = controls(&full);
    assert!(partial.len() < all.len(), "the run stopped early");
    assert!(partial.is_subset(&all), "a partial run keeps a prefix");

    match bounded(true).run(&mut control_db()) {
        Err(KgmError::ResourceExhausted(msg)) => assert!(
            msg.contains("max_bytes") && msg.contains(&budget.to_string()),
            "{msg}"
        ),
        other => panic!("strict mode must fail with ResourceExhausted, got {other:?}"),
    }
}

/// Heap allocations per derived fact across `Engine::run` of the control
/// chase (15,533 `controls` facts), at 1 thread and at 2 sharded threads,
/// with provenance off and on. The chase moves cells in flat buffers from
/// join to store, and the aggregate table keeps every group's provenance
/// snapshot in one flat arena, so no derived fact, match, survivor or
/// group owns a heap block of its own. Only amortized buffer growth is
/// left, plus, at 2 threads, each wave's worker spawns and shard buffers
/// (`min_parallel_batch: 1` makes waves of 128 rows): 0.06 and 0.41 per
/// fact with provenance off, 0.08 and 0.67 with it on. A heap block per
/// head and per buffered binding made 15.3 and 20.4 off, and 26.6 and 31.7
/// on; a parent list per group made 5.07 and 5.15 on.
#[test]
fn the_control_chase_allocates_little_per_derived_fact() {
    let _guard = MEASURING.lock();
    for threads in [1, 2] {
        for provenance in [false, true] {
            let engine = control_engine(EngineConfig {
                threads,
                min_parallel_batch: 1,
                deadline_ms: None,
                provenance,
                ..EngineConfig::default()
            });
            let mut db = control_db();
            let before = allocs();
            let stats = engine.run(&mut db).unwrap();
            let per_fact = (allocs() - before) as f64 / stats.derived_facts as f64;
            let bound = 1.0;
            assert!(stats.derived_facts > 15_000, "{stats:?}");
            assert!(
                per_fact < bound,
                "threads {threads}, provenance {provenance}: {per_fact:.2} allocations per \
                 derived fact (bound {bound})"
            );
        }
    }
}

/// A join index costs O(log keys) allocations and a few words per key, not
/// a heap block per key. The chase joins one `probe` fact into 100,000
/// `big` rows on their distinct first column, so it builds one index over
/// 100,000 keys (plus a one-key index on `probe`) and derives one fact.
#[test]
fn a_join_index_allocates_nothing_per_key() {
    const KEYS: usize = 100_000;
    let _guard = MEASURING.lock();
    let engine = Engine::with_config(
        parse_program("probe(X), big(X, Y) -> hit(Y).").unwrap(),
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut db = FactDb::new();
    let big = (0..KEYS as i64).map(|i| vec![Value::Int(i), Value::Int(i + 1)]);
    db.add_facts("big", big.collect()).unwrap();
    db.insert("probe", vec![Value::Int(KEYS as i64 / 2)])
        .unwrap();

    let (bytes_before, allocs_before) = (live(), allocs());
    engine.run(&mut db).unwrap();
    let bytes = live().saturating_sub(bytes_before);
    let allocations = allocs() - allocs_before;
    assert_eq!(db.facts("hit"), vec![vec![Value::Int(KEYS as i64 / 2 + 1)]]);
    assert!(
        allocations < 1_000,
        "{allocations} allocations for a {KEYS}-key index: one or more per key"
    );
    assert!(
        bytes <= 48 * KEYS,
        "the run kept {bytes} bytes, {:.1} per key (at most 48)",
        bytes as f64 / KEYS as f64
    );
}

/// Rows of `big`, one distinct first column each, in the join-index runs.
const BIG_ROWS: usize = 100_000;

/// Chase `src` at 1 thread over `BIG_ROWS` rows `big(i, i + 1)` and the
/// one fact `probe(key)`, and return the engine, the store and the bytes
/// the run kept.
fn probe_big_run(src: &str, key: i64) -> (Engine, FactDb, usize) {
    let engine = Engine::with_config(
        parse_program(src).unwrap(),
        EngineConfig {
            threads: 1,
            deadline_ms: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut db = FactDb::new();
    let big = (0..BIG_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i + 1)]);
    db.add_facts("big", big.collect()).unwrap();
    db.insert("probe", vec![Value::Int(key)]).unwrap();
    let before = live();
    engine.run(&mut db).unwrap();
    let bytes = live().saturating_sub(before);
    assert_eq!(db.facts("hit"), vec![vec![Value::Int(key + 1)]]);
    (engine, db, bytes)
}

/// An index whose keys never repeat is its slot table alone: no segment
/// header and no posting per key. The run of
/// `a_join_index_allocates_nothing_per_key` keeps at most 12 B per key,
/// where the segment layout would keep 31.5.
#[test]
fn a_unique_key_index_keeps_only_its_slot_table() {
    let _guard = MEASURING.lock();
    let (_, _, bytes) = probe_big_run("probe(X), big(X, Y) -> hit(Y).", BIG_ROWS as i64 / 2);
    let per_key = bytes as f64 / BIG_ROWS as f64;
    assert!(
        per_key <= 12.0,
        "the run kept {bytes} bytes, {per_key:.1} per key (at most 12)"
    );
}

/// A from-scratch chase evaluates `big`'s order, which probes `probe[0]`,
/// and never the delta order that starts at `probe`, which would probe
/// `big[0]`: `probe` does not grow. So the run builds no index over `big`
/// and keeps under 1 B per `big` row. An update that does grow `probe`
/// builds `big[0]` then, and derives through it.
#[test]
fn a_chase_builds_only_the_indexes_its_join_orders_probe() {
    let _guard = MEASURING.lock();
    let (engine, mut db, bytes) = probe_big_run("big(X, Y), probe(X) -> hit(Y).", 7);
    assert!(
        bytes < BIG_ROWS,
        "the run kept {bytes} bytes, {:.2} per big row (under 1)",
        bytes as f64 / BIG_ROWS as f64
    );
    let update = Update {
        inserts: vec![("probe".to_string(), vec![Value::Int(50_000)])],
        deletes: Vec::new(),
    };
    let stats = engine.apply_update(&mut db, update).unwrap();
    assert_eq!(stats.profile.update_fallbacks, 0);
    assert_eq!(db.len("hit"), 2);
    assert!(db.contains("hit", &[Value::Int(50_001)]));
}
