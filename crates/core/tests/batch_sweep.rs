//! Integration tests for the sweep engine (`sweep::batch`, behind
//! `SweepExecutor::execute`): bit-identity against a per-point
//! `CarbonModel::lifecycle` reference (cold, warm, any worker count,
//! tiny artifact caps, plan switches, oversized drops), delta-eval
//! accounting when only downstream axes change, artifact sharing
//! between warm executions, and a property test over randomized plans,
//! worker counts, and configuration sequences.

mod common;

use common::lifecycle_reference;
use proptest::prelude::*;
use std::sync::Arc;
use tdc_core::sweep::{BatchRanking, DesignSweep, SweepExecutor, SweepPlan};
use tdc_core::{CarbonModel, ModelContext, Workload};
use tdc_technode::{GridRegion, ProcessNode};
use tdc_units::{Throughput, TimeSpan};

const REGIONS: [GridRegion; 4] = [
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::CoalHeavy,
    GridRegion::Renewable,
];

fn model() -> CarbonModel {
    CarbonModel::new(ModelContext::default())
}

fn region_model(region: GridRegion) -> CarbonModel {
    CarbonModel::new(ModelContext::builder().use_region(region).build())
}

fn workload(tops: f64) -> Workload {
    Workload::fixed(
        "app",
        Throughput::from_tops(tops),
        TimeSpan::from_hours(10_000.0),
    )
}

/// The paper's Table 2 space: every node × technology × the 2D
/// reference, 99 points.
fn table2_plan() -> SweepPlan {
    DesignSweep::new(17.0e9).plan().unwrap()
}

#[test]
fn batch_is_byte_identical_to_per_point_cold_and_warm() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let reference = lifecycle_reference(&m, &plan, &w).entries;

    let executor = SweepExecutor::serial();
    let cold = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(reference, cold.entries());
    // Cold accounting: nothing warm, every stage computed once per
    // point.
    assert_eq!(cold.stats().cache_hits, 0);
    assert_eq!(cold.stats().cache_misses, plan.len());
    assert_eq!(cold.stats().stages.hits(), 0);
    assert_eq!(cold.stats().stages.misses() as usize, 5 * plan.len());
    assert_eq!(cold.stats().delta_skips, 0);

    // Re-execution is answered entirely from the plan's stage columns.
    let warm = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(reference, warm.entries());
    assert_eq!(warm.stats().cache_hits, plan.len());
    assert_eq!(warm.stats().cache_misses, 0);
    assert!(warm.stats().delta_skips > 0);
    assert_eq!(warm.stats().workers, 1);
}

#[test]
fn batch_is_byte_identical_under_any_worker_count() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(100.0));
    let reference = lifecycle_reference(&m, &plan, &w).entries;
    let reference_totals: Vec<u64> = reference
        .iter()
        .map(|e| e.report.total().kg().to_bits())
        .collect();
    for workers in [1, 2, 3, 8] {
        let executor = SweepExecutor::new(workers).parallel_threshold(0);
        let result = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(reference, result.entries(), "{workers} workers");
        assert_eq!(result.stats().workers, workers);
        // The ranking API's totals are the reference totals, bit for
        // bit, in the same order.
        let mut ranking = BatchRanking::new();
        executor
            .execute_batched_ranking(&m, &plan, &w, &mut ranking)
            .unwrap();
        let totals: Vec<u64> = ranking
            .ranked()
            .iter()
            .map(|r| r.total_kg.to_bits())
            .collect();
        assert_eq!(reference_totals, totals, "{workers} workers");
    }
}

#[test]
fn tiny_artifact_cap_still_yields_byte_identical_output() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(150.0));
    let reference = lifecycle_reference(&m, &plan, &w).entries;
    for cap in [1, 2, 7] {
        let executor = SweepExecutor::serial().artifact_cap(cap);
        let first = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(reference, first.entries(), "cap {cap} cold");
        // Columns outlive the evicted keyed artifacts, so the rerun is
        // still warm — and still identical.
        let second = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(reference, second.entries(), "cap {cap} warm");
        assert_eq!(second.stats().cache_hits, plan.len(), "cap {cap} warm");
        // A second plan evicts the first one's columns; with a tiny cap
        // the keyed store has lost most artifacts too, and the result
        // is still identical.
        let other = DesignSweep::new(9.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap();
        executor.execute(&m, &other, &w).unwrap();
        let third = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(reference, third.entries(), "cap {cap} after switch");
    }
}

#[test]
fn switching_plans_resets_columns_but_not_correctness() {
    let (m, w) = (model(), workload(100.0));
    let executor = SweepExecutor::serial();
    let a = DesignSweep::new(10.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    let b = DesignSweep::new(12.0e9)
        .nodes(vec![ProcessNode::N5])
        .plan()
        .unwrap();
    let ref_a = lifecycle_reference(&m, &a, &w).entries;
    let ref_b = lifecycle_reference(&m, &b, &w).entries;
    assert_eq!(ref_a, executor.execute(&m, &a, &w).unwrap().entries());
    assert_eq!(ref_b, executor.execute(&m, &b, &w).unwrap().entries());
    // Back to plan A: its columns were dropped at the switch, but the
    // keyed cache still answers every stage — no recomputation.
    let again = executor.execute(&m, &a, &w).unwrap();
    assert_eq!(ref_a, again.entries());
    assert_eq!(again.stats().cache_hits, a.len());
    assert_eq!(again.stats().stages.misses(), 0);
}

#[test]
fn oversized_points_drop_identically_on_both_paths() {
    // A huge gate budget on the oldest nodes makes some dies outgrow
    // the wafer; those points must be dropped, not errored, and the
    // engine must drop exactly the set the reference rejects.
    let plan = DesignSweep::new(60.0e9).plan().unwrap();
    let (m, w) = (model(), workload(100.0));
    let reference = lifecycle_reference(&m, &plan, &w);
    assert!(reference.dropped > 0, "test needs oversized points");
    let executor = SweepExecutor::serial();
    let batch = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(reference.entries, batch.entries());
    assert_eq!(reference.dropped, batch.stats().dropped);
    // Warm rerun: drops are remembered structurally.
    let warm = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(reference.entries, warm.entries());
    assert_eq!(warm.stats().dropped, batch.stats().dropped);
    assert_eq!(warm.stats().cache_hits, plan.len());
}

#[test]
fn operational_only_axis_change_delta_evals_the_embodied_chain() {
    // Same plan, new grid region: the embodied chain is structurally
    // unchanged, so a warm batch recomputes *only* the operational
    // stage — zero embodied/physical/yield misses, one operational
    // miss per ranked point. This is the delta-eval contract the
    // perf_guard floor (`batch_delta_embodied_single_eval_min`) pins.
    let plan = table2_plan();
    let w = workload(254.0);
    let executor = SweepExecutor::serial();
    let reference = executor
        .execute(&region_model(REGIONS[0]), &plan, &w)
        .unwrap();
    for region in &REGIONS[1..] {
        let m = region_model(*region);
        let result = executor.execute(&m, &plan, &w).unwrap();
        let stages = result.stats().stages;
        assert_eq!(stages.embodied.misses, 0, "{region:?}");
        assert_eq!(stages.physical.misses, 0, "{region:?}");
        assert_eq!(stages.yields.misses, 0, "{region:?}");
        assert_eq!(stages.operational.misses as usize, plan.len(), "{region:?}");
        assert!(result.stats().delta_skips > 0, "{region:?}");
        // And the output still matches the per-point reference.
        let fresh = lifecycle_reference(&m, &plan, &w).entries;
        assert_eq!(fresh, result.entries(), "{region:?}");
        assert_ne!(reference.entries(), result.entries(), "{region:?}");
    }
}

#[test]
fn ranking_api_matches_materialized_entries() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let executor = SweepExecutor::serial();
    let materialized = executor.execute(&m, &plan, &w).unwrap();
    let mut ranking = BatchRanking::new();
    executor
        .execute_batched_ranking(&m, &plan, &w, &mut ranking)
        .unwrap();
    assert_eq!(ranking.ranked().len(), materialized.entries().len());
    for (ranked, entry) in ranking.ranked().iter().zip(materialized.entries()) {
        let point = &plan.points()[ranked.index];
        assert_eq!(point.design(), &entry.design);
        assert_eq!(point.label(), entry.label);
        assert!(ranked.total_kg == entry.report.total().kg());
    }
    assert_eq!(ranking.stats().cache_hits, plan.len());
}

#[test]
fn warm_executions_share_artifacts_instead_of_copying() {
    let plan = table2_plan();
    let (m, w) = (model(), workload(254.0));
    let executor = SweepExecutor::serial();
    executor.execute(&m, &plan, &w).unwrap();
    let first = executor.execute(&m, &plan, &w).unwrap();
    let second = executor.execute(&m, &plan, &w).unwrap();
    assert_eq!(first.entries().len(), second.entries().len());
    for (a, b) in first.entries().iter().zip(second.entries()) {
        assert!(Arc::ptr_eq(&a.design, &b.design), "{}", a.label);
        assert!(
            Arc::ptr_eq(&a.report.embodied, &b.report.embodied),
            "{}",
            a.label
        );
        assert!(
            Arc::ptr_eq(&a.report.operational, &b.report.operational),
            "{}",
            a.label
        );
    }
    // The design is the plan point's own, not a copy of it.
    for entry in first.entries() {
        let point = plan
            .points()
            .iter()
            .find(|p| p.label() == entry.label)
            .unwrap();
        assert!(
            Arc::ptr_eq(point.design(), &entry.design),
            "{}",
            entry.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized plans × configuration sequences × worker counts:
    /// every execution (including warm reruns mid-sequence) is
    /// bit-identical to the per-point `CarbonModel::lifecycle`
    /// reference.
    #[test]
    fn batch_matches_fresh_per_point_on_random_streams(
        gates in 2.0e9..40.0e9f64,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..3),
        workers in 1usize..9,
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 1..5),
        tops_picks in proptest::collection::vec(20.0..400.0f64, 1..5),
    ) {
        let nodes: Vec<ProcessNode> =
            node_picks.iter().map(|i| ProcessNode::ALL[*i]).collect();
        let plan = DesignSweep::new(gates).nodes(nodes).plan().unwrap();
        let executor = SweepExecutor::new(workers).parallel_threshold(0);
        for (region_idx, tops) in region_picks.iter().zip(&tops_picks) {
            let m = region_model(REGIONS[*region_idx]);
            let w = workload(*tops);
            let batch = executor.execute(&m, &plan, &w).unwrap();
            let fresh = lifecycle_reference(&m, &plan, &w).entries;
            prop_assert_eq!(&fresh, batch.entries());
            // Immediate warm rerun: columns answer everything, output
            // is unchanged.
            let warm = executor.execute(&m, &plan, &w).unwrap();
            prop_assert_eq!(&fresh, warm.entries());
            prop_assert_eq!(warm.stats().cache_hits, plan.len());
        }
    }
}
