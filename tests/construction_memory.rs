//! Peak live heap of graph construction, gated against the graph it builds.
//!
//! Building a graph should cost about the graph: a read-only server's peak
//! resident memory is otherwise set at boot, before its first query. This
//! binary installs a counting global allocator and measures, for each
//! construction path a server boots through, the peak live heap the call
//! reaches above what was live before it, divided by the result's
//! [`DiGraph::memory_bytes`]:
//!
//! - a Table 2 stand-in (`generate_scaled`) must peak at ≤ 2.5× its graph,
//!   both through the power-law configuration model (IC, WV) and through
//!   Barabási–Albert and the builder (GQ);
//! - a snapshot decode (`decode_digraph`) must peak at ≤ 1.25× its graph:
//!   the bytes are already in memory, and the graph is all it adds.
//!
//! Allocation sizes are deterministic, so the gate is exact in any build
//! profile. A growing `realloc` is counted at its worst case, old and new
//! blocks both live. The file holds a single test because parallel tests
//! would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use exactsim_datasets::dataset_by_key;
use exactsim_graph::binfmt::{decode_digraph, encode_digraph};
use exactsim_graph::DiGraph;

/// Live heap bytes, and the most that has been live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // Worst case: the new block is live before the old one is freed.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `build` and returns its result with the peak live heap it reached
/// above the heap live when it started.
fn peak_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let built = build();
    (built, PEAK.load(Ordering::SeqCst) - before)
}

fn ratio(peak: usize, graph: &DiGraph) -> f64 {
    peak as f64 / graph.memory_bytes() as f64
}

#[test]
fn construction_peaks_near_the_size_of_the_graph_it_builds() {
    let mut failures = Vec::new();
    for (key, scale) in [("IC", 0.001), ("WV", 1.0), ("GQ", 1.0)] {
        let spec = dataset_by_key(key).unwrap();
        let (dataset, peak) = peak_of(|| spec.generate_scaled(scale).unwrap());
        let graph = dataset.graph;
        let generated = ratio(peak, &graph);
        println!(
            "generate {key}@{scale}: {} edges, graph {} B, peak {peak} B, {generated:.3}x",
            graph.num_edges(),
            graph.memory_bytes()
        );
        if generated > 2.5 {
            failures.push(format!("generate {key}@{scale}: {generated:.3}x > 2.5x"));
        }

        let mut bytes = Vec::new();
        encode_digraph(&graph, &mut bytes);
        let (decoded, peak) = peak_of(|| decode_digraph(&bytes).unwrap());
        assert_eq!(decoded.out_csr(), graph.out_csr());
        assert_eq!(decoded.in_csr(), graph.in_csr());
        let decoded = ratio(peak, &graph);
        println!("decode {key}@{scale}: peak {peak} B, {decoded:.3}x");
        if decoded > 1.25 {
            failures.push(format!("decode {key}@{scale}: {decoded:.3}x > 1.25x"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
