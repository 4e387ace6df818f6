//! Allocation pin of the SMT rung: one warm `solve_warm` of
//! `smt_work.rs`'s first problem (10 steps × 2 queues, the benchmark's
//! `offline-smt` geometry) makes a pinned number of heap allocations.
//! The fast engine's hint, the build of the formula and the search all
//! count; a change that makes any of them allocate more, or that moves
//! the count down, edits the pin.
//!
//! Its own test binary: the counting allocator below serves every test
//! in it.

use fmml_fm::cem::{smt_engine, IntervalProblem};
use fmml_smt::solver::Budget;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the heap allocations of the thread that makes them.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(p, layout, size)
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn a_warm_solve_allocates_a_pinned_count() {
    let p = IntervalProblem {
        len: 10,
        target: vec![
            vec![0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 2, 0, 0, 0],
        ],
        maxes: vec![4, 2],
        samples: vec![0, 0],
        m_out: 3,
    };
    let solve = || {
        let sol = smt_engine::solve_warm(&p, Budget::default()).expect("feasible");
        assert_eq!(sol.objective, 1);
    };
    // The first solve registers the `smt.*` metrics.
    solve();
    let counts: Vec<u64> = (0..3).map(|_| allocations(solve)).collect();
    // The build allocates per table and per tableau row, nothing per
    // term, clause, watch list or atom.
    assert_eq!(counts, [212; 3], "allocations per warm solve");
}
