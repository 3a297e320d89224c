//! Regression test for [`FactDb::approx_bytes`]: the governor's memory
//! budget is only as honest as this estimate, so it is pinned against a
//! counting global allocator. The test builds a store of realistic shape
//! (mixed string/int columns, enough rows for several dedup-table growths
//! and index builds) and requires the reported footprint to stay within a
//! factor of two of the measured net allocation — tight enough to catch a
//! forgotten structure (the old row-oriented proxy undercounted its dedup
//! set entirely) while leaving room for allocator slack the estimate cannot
//! see.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kgm_common::Value;
use kgm_runtime::Mutex;
use kgm_vadalog::{parse_program, Engine, EngineConfig, FactDb};

/// System allocator wrapper tracking live (allocated minus freed) bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
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
    let program = parse_program(
        "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
    )
    .unwrap();
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
    let program = parse_program(
        "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
    )
    .unwrap();
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
