//! Integration tests for the parallel sweep executor: bit-identity
//! with the per-point `CarbonModel::lifecycle` reference under 1/2/8
//! workers, cache-hit accounting, and a property test that parallel
//! and serial sweeps produce identical `SweepEntry` orderings for
//! arbitrary gate budgets and axis subsets.

mod common;

use common::lifecycle_reference;
use proptest::prelude::*;
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_integration::IntegrationTechnology;
use tdc_technode::ProcessNode;
use tdc_units::{Throughput, TimeSpan};

fn model() -> CarbonModel {
    CarbonModel::new(ModelContext::default())
}

fn workload(tops: f64) -> Workload {
    Workload::fixed(
        "app",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

#[test]
fn determinism_under_1_2_8_workers() {
    let sweep = DesignSweep::new(12.0e9).tier_counts(vec![2, 4]);
    let plan = sweep.plan().unwrap();
    let (m, w) = (model(), workload(100.0));
    let reference = lifecycle_reference(&m, &plan, &w).entries;
    assert!(!reference.is_empty());
    let serial = SweepExecutor::new(1).execute(&m, &plan, &w).unwrap();
    assert_eq!(reference, serial.entries());
    for workers in [2, 8] {
        // parallel_threshold(0) disables the small-plan serial clamp so
        // the requested pool size is exercised even on this tiny plan.
        let result = SweepExecutor::new(workers)
            .parallel_threshold(0)
            .execute(&m, &plan, &w)
            .unwrap();
        // Full structural equality — labels, designs, and every f64 of
        // every report — not just the ranking order.
        assert_eq!(reference, result.entries(), "{workers} workers");
        assert_eq!(result.stats().workers, workers.min(plan.len()));
    }
}

#[test]
fn serial_run_and_parallel_run_match_via_builder_api() {
    let sweep = DesignSweep::new(9.0e9).nodes(vec![ProcessNode::N7, ProcessNode::N12]);
    let (m, w) = (model(), workload(150.0));
    let serial = sweep.run(&m, &w).unwrap();
    let parallel = sweep.run_parallel(&m, &w, 8).unwrap();
    assert_eq!(serial, parallel.into_entries());
    assert_eq!(
        serial,
        lifecycle_reference(&m, &sweep.plan().unwrap(), &w).entries
    );
}

#[test]
fn cache_hits_are_counted_for_repeated_points() {
    // Two tier counts duplicate nothing (the 2D reference is emitted
    // once), so the first pass is all misses...
    let sweep = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .tier_counts(vec![2, 3]);
    let plan = sweep.plan().unwrap();
    let executor = SweepExecutor::new(2);
    let (m, w) = (model(), workload(100.0));
    let first = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(first.stats().cache_hits, 0);
    assert_eq!(first.stats().cache_misses, plan.len());
    // ...and a re-execution over the same (model, workload) is all
    // hits, with identical output.
    let second = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(second.stats().cache_hits, plan.len());
    assert_eq!(second.stats().cache_misses, 0);
    assert_eq!(first.entries(), second.entries());
    // The re-execution's own per-stage counters agree: the warm pass
    // answers both artifact heads (embodied + operational) per point
    // from the plan's columns and computes nothing.
    let warm = second.stats().stages;
    assert_eq!(warm.embodied.hits as usize, plan.len());
    assert_eq!(warm.operational.hits as usize, plan.len());
    assert_eq!(warm.misses(), 0);
    assert!((warm.warm_hit_rate() - 1.0).abs() < 1e-12);

    // A *different* workload re-prices the operational stage — no
    // point is fully cached — but embodied artifacts are reused.
    let third = executor.execute(&m, &plan, &workload(200.0)).unwrap();
    assert_eq!(third.stats().cache_hits, 0);
    assert_eq!(third.stats().stages.operational.misses, plan.len() as u64);
    assert_eq!(third.stats().stages.embodied.hits, plan.len() as u64);
}

#[test]
fn power_model_parameter_change_invalidates_cache() {
    // Two models that differ ONLY in power plug-in parameters (same
    // type, same context) must not share cached results — the model
    // fingerprint includes the plug-in's parameter fingerprint.
    let sweep = DesignSweep::new(10.0e9).nodes(vec![ProcessNode::N7]);
    let plan = sweep.plan().unwrap();
    let w = workload(100.0);
    let slow = CarbonModel::new(ModelContext::default()).with_power_model(Box::new(
        tdc_power::FixedEfficiency::new(tdc_units::Efficiency::from_tops_per_watt(1.0)),
    ));
    let fast = CarbonModel::new(ModelContext::default()).with_power_model(Box::new(
        tdc_power::FixedEfficiency::new(tdc_units::Efficiency::from_tops_per_watt(10.0)),
    ));
    let executor = SweepExecutor::serial();
    let slow_result = executor.execute(&slow, &plan, &w).unwrap();
    let fast_result = executor.execute(&fast, &plan, &w).unwrap();
    assert_eq!(
        fast_result.stats().cache_hits,
        0,
        "different power-model parameters must miss the cache"
    );
    // And the results genuinely differ (the sweep dies carry no
    // explicit efficiency, so the plug-in sets operational power).
    assert!(
        fast_result.entries()[0].report.operational.carbon
            < slow_result.entries()[0].report.operational.carbon
    );
}

#[test]
fn duplicated_axis_entries_tie_exactly_and_rank_byte_identically() {
    // A technology listed twice enumerates two points with identical
    // designs — their life-cycle totals tie bit-for-bit. The ranking's
    // plan-index tie-break must make serial and every parallel width
    // byte-identical (this is the regression guard for deterministic
    // tie handling in the serial path as well as the sharded one).
    let sweep = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .technologies(vec![
            None,
            Some(IntegrationTechnology::Emib),
            Some(IntegrationTechnology::Emib),
            Some(IntegrationTechnology::HybridBonding3d),
            Some(IntegrationTechnology::HybridBonding3d),
        ]);
    let plan = sweep.plan().unwrap();
    assert_eq!(plan.len(), 5);
    let (m, w) = (model(), workload(100.0));
    let serial = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
    assert_eq!(lifecycle_reference(&m, &plan, &w).entries, serial.entries());
    // The duplicated points really are exact ties…
    let emib: Vec<_> = serial
        .entries()
        .iter()
        .filter(|e| e.technology == Some(IntegrationTechnology::Emib))
        .collect();
    assert_eq!(emib.len(), 2);
    assert!(emib[0].report.total().kg() == emib[1].report.total().kg());
    // …and every worker count ranks the whole list byte-identically.
    for workers in [2, 3, 8] {
        let parallel = SweepExecutor::new(workers).execute(&m, &plan, &w).unwrap();
        assert_eq!(serial.entries(), parallel.entries(), "{workers} workers");
    }
    // The builder convenience paths agree too.
    let run = sweep.run(&m, &w).unwrap();
    let run_parallel = sweep.run_parallel(&m, &w, 8).unwrap();
    assert_eq!(run, run_parallel.into_entries());
    assert_eq!(run.as_slice(), serial.entries());
}

#[test]
fn overlapping_plans_share_the_cache() {
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::new(2);
    let narrow = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .technologies(vec![None, Some(IntegrationTechnology::HybridBonding3d)])
        .plan()
        .unwrap();
    executor.execute(&m, &narrow, &w).unwrap();
    // The wider plan contains the narrow plan's two points.
    let wide = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let result = executor.execute(&m, &wide, &w).unwrap();
    assert_eq!(result.stats().cache_hits, narrow.len());
    assert_eq!(result.stats().cache_misses, wide.len() - narrow.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_and_serial_orderings_are_identical(
        gates in 2.0e9..40.0e9f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..4),
        workers in 2usize..9,
        tops in 20.0..400.0f64,
    ) {
        let nodes: Vec<ProcessNode> =
            node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
        let sweep = DesignSweep::new(gates).nodes(nodes);
        let (m, w) = (model(), workload(tops));
        let serial = sweep.run(&m, &w).unwrap();
        let parallel = sweep.run_parallel(&m, &w, workers).unwrap();
        let parallel_entries = parallel.into_entries();
        prop_assert_eq!(serial.len(), parallel_entries.len());
        // Identical ordering: same label sequence, same totals, and
        // full structural equality.
        for (s, p) in serial.iter().zip(&parallel_entries) {
            prop_assert_eq!(&s.label, &p.label);
            prop_assert!((s.report.total().kg() - p.report.total().kg()).abs() == 0.0);
        }
        prop_assert_eq!(serial, parallel_entries);
    }
}
