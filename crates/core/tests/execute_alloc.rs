//! The allocation budget of a warm materializing `execute` call,
//! enforced with a counting global allocator.
//!
//! A warm `SweepExecutor::execute` builds one `SweepEntry` per ranked
//! point. The entry shares the plan's design and the engine's cached
//! embodied and operational reports by reference count, so the only
//! per-entry heap allocation left is its owned `label` string. The
//! test prices the same call on a 9-point and a 99-point plan: the
//! larger plan may allocate at most once more per extra entry, plus a
//! small constant (the output vectors growing past a few more powers
//! of two). A deep copy of any shared artifact would cost several
//! allocations per entry and fail the bound.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, so a sibling test running on another thread would
//! pollute the measurement (see `batch_alloc.rs` for the same pattern).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the per-call constant may exceed the label-per-entry
/// budget by: the ranking and entry vectors of the larger plan grow
/// through a few more capacities than the smaller plan's.
const SLACK: u64 = 8;

/// (entries, allocations) of one warm `execute` on a fresh plan of
/// `nodes`.
fn warm_execute_allocations(nodes: Vec<ProcessNode>) -> (u64, u64) {
    let plan = DesignSweep::new(17.0e9).nodes(nodes).plan().unwrap();
    let model = CarbonModel::new(ModelContext::default());
    let workload = Workload::fixed(
        "app",
        Throughput::from_tops(254.0),
        TimeSpan::from_hours(10_000.0),
    );
    let executor = SweepExecutor::serial();
    // The first call fills the stage columns; the second is warm.
    executor.execute(&model, &plan, &workload).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = executor.execute(&model, &plan, &workload).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(result.stats().cache_hits, plan.len(), "warm-up failed");
    assert_eq!(result.entries().len(), plan.len());
    (plan.len() as u64, after - before)
}

#[test]
fn warm_execute_allocates_only_the_label_per_entry() {
    let (small_n, small) = warm_execute_allocations(vec![ProcessNode::N7]);
    let (large_n, large) = warm_execute_allocations(ProcessNode::ALL.to_vec());
    assert_eq!((small_n, large_n), (9, 99));
    let extra_entries = large_n - small_n;
    assert!(
        large <= small + extra_entries + SLACK,
        "warm execute allocated {small} times for {small_n} entries and {large} for \
         {large_n}: {:.2} allocations per extra entry, expected at most 1 (the label)",
        (large - small) as f64 / extra_entries as f64
    );
}
