//! Memory pin for the shareholding registry: a seeded 100,000-node
//! registry, generated with kgbench's configuration, must keep at most
//! 300 B of live heap per node, and generating it must make at most 10
//! allocations per node, reallocations included. Both are measured with a
//! counting global allocator.
//!
//! The bounds hold because no node or edge of the property graph owns a
//! heap allocation: labels are interned sets, properties live in one arena
//! and adjacency in two segment arenas. One `Vec` per node for labels,
//! properties and each adjacency direction, plus two OID hash maps, kept
//! about 414 B per node and made about 13.4 allocations per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kgm_finance::generator::{generate_shareholding, ShareholdingConfig};

/// System allocator wrapper counting live (allocated minus freed) bytes and
/// the calls that allocate or reallocate.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 100_000;

// The only test in this binary: the counters are process-global, so a
// second test running concurrently would be counted too.
#[test]
fn registry_keeps_under_300_bytes_and_10_allocations_per_node() {
    let config = ShareholdingConfig {
        nodes: NODES,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        seed: 1,
        ..Default::default()
    };
    let (live, calls) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let g = generate_shareholding(&config).unwrap();
    let bytes = (LIVE.load(Ordering::Relaxed) - live) as f64 / NODES as f64;
    let allocs = (CALLS.load(Ordering::Relaxed) - calls) as f64 / NODES as f64;
    assert_eq!(g.node_count(), NODES);
    assert!(
        bytes <= 300.0,
        "the registry keeps {bytes:.1} B per node (bound 300 B)"
    );
    assert!(
        allocs <= 10.0,
        "generation made {allocs:.2} allocations per node (bound 10)"
    );
}
