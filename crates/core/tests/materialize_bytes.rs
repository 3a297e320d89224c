//! Memory pin for Algorithm 2: `materialize` of the control component over
//! a seeded 5,000-node registry must peak at most 6 MiB above the live
//! data graph, measured with a counting global allocator.
//!
//! The bound holds for four reasons. The dictionary's instance level is
//! the chase's fact store: the quasi-inverse load writes its rows once,
//! into the store the chase runs on. Building the instance level as a
//! second property graph and scanning it into that store peaked at about
//! 30 MiB here. The store holds each OID, most of the values the load
//! writes, inline in its cell rather than in the value pool: pooling them
//! too peaked at about 17.5 MiB. And the input views join each mandatory
//! attribute straight into its label's atom: copying every attribute
//! through the optional-attribute chain of `vi_*` relations peaked at
//! about 8.6 MiB. And each functional link of an instance construct (its
//! schema construct, an edge's endpoints, an attribute's owner) is a
//! column of the construct's row: writing each link as a row of its own,
//! with an OID of its own, peaked at about 7.4 MiB. Today's peak is about
//! 5.5 MiB at any `KGM_THREADS`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kgm_core::intensional::{materialize, MaterializationMode};
use kgm_finance::control::CONTROL_METALOG;
use kgm_finance::generator::{generate_shareholding, ShareholdingConfig};
use kgm_finance::schema::simple_ownership_schema;

/// System allocator wrapper tracking live (allocated minus freed) bytes and
/// their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
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
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: f64 = 1024.0 * 1024.0;

// The only test in this binary: the counters are process-global, so a
// second test running concurrently would be counted too.
#[test]
fn materialize_peaks_at_most_6_mib_above_the_data_graph() {
    let schema = simple_ownership_schema().unwrap();
    let mut data = generate_shareholding(&ShareholdingConfig {
        nodes: 5_000,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        seed: 1,
        ..Default::default()
    })
    .unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let stats = materialize(
        &mut data,
        &schema,
        CONTROL_METALOG,
        MaterializationMode::SinglePass,
    )
    .unwrap();
    let peak = (PEAK.load(Ordering::Relaxed) - base) as f64 / MIB;
    assert!(stats.termination.is_complete(), "{stats:?}");
    assert!(stats.new_edges > 0, "{stats:?}");
    assert!(
        peak <= 6.0,
        "materialize peaked {peak:.2} MiB above the data graph (bound 6 MiB)"
    );
}
