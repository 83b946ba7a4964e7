//! Span-tree well-nesting under the parallel sweep executor.
//!
//! The obs span recorder keeps one stack per thread, so spans recorded
//! by concurrently stealing workers must still form proper per-thread
//! trees: every span closes, every child links a parent on its own
//! thread whose interval encloses it, and any two spans on one thread
//! are either nested or disjoint — for *any* worker count.
//!
//! This file deliberately contains a single `#[test]`: the recorder is
//! process-global, and a sibling test recording spans concurrently
//! would interleave its records into the measurement.

mod common;

use common::lifecycle_reference;
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

#[test]
fn spans_stay_well_nested_for_any_worker_count() {
    tdc_obs::set_enabled(true);
    for workers in [1usize, 2, 4, 8] {
        tdc_obs::reset();
        let plan = DesignSweep::new(17.0e9)
            .nodes(ProcessNode::ALL.to_vec())
            .plan()
            .unwrap();
        let model = CarbonModel::new(ModelContext::default());
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(254.0),
            TimeSpan::from_hours(10_000.0),
        );
        // Threshold 0 forces the chunked work-stealing path even for
        // this sub-threshold plan, so workers > 1 really record from
        // multiple threads.
        let executor = SweepExecutor::new(workers).parallel_threshold(0);
        let result = executor.execute(&model, &plan, &workload).unwrap();
        let spans = tdc_obs::take_spans();
        assert_eq!(
            lifecycle_reference(&model, &plan, &workload).entries,
            result.entries(),
            "workers={workers}: recording spans changed the result"
        );
        assert!(
            spans.iter().any(|s| s.name == "sweep.execute_batched"),
            "workers={workers}: no sweep.execute_batched span recorded"
        );
        assert!(
            spans.iter().any(|s| s.name.starts_with("stage.")),
            "workers={workers}: no stage spans recorded on a cold sweep"
        );

        for (i, span) in spans.iter().enumerate() {
            assert_ne!(
                span.end_ns, 0,
                "workers={workers}: span {i} ({}) never closed",
                span.name
            );
            assert!(
                span.end_ns >= span.start_ns,
                "workers={workers}: span {i} ({}) ends before it starts",
                span.name
            );
            if let Some(p) = span.parent {
                assert!(p < i, "workers={workers}: parent after child");
                let parent = &spans[p];
                assert_eq!(
                    parent.thread, span.thread,
                    "workers={workers}: span {i} ({}) links a parent on another thread",
                    span.name
                );
                assert!(
                    parent.start_ns <= span.start_ns && parent.end_ns >= span.end_ns,
                    "workers={workers}: child {i} ({}) escapes its parent's interval",
                    span.name
                );
            }
        }

        // Pairwise per-thread: intervals nest or are disjoint — a
        // strict partial overlap means a worker's stack discipline
        // broke.
        for (i, a) in spans.iter().enumerate() {
            for (j, b) in spans.iter().enumerate() {
                if i == j || a.thread != b.thread {
                    continue;
                }
                let partial_overlap =
                    b.start_ns > a.start_ns && b.start_ns < a.end_ns && b.end_ns > a.end_ns;
                assert!(
                    !partial_overlap,
                    "workers={workers}: spans {i} ({}) and {j} ({}) partially overlap \
                     on thread {}",
                    a.name, b.name, a.thread
                );
            }
        }
    }
    tdc_obs::set_enabled(false);
    tdc_obs::reset();
}
