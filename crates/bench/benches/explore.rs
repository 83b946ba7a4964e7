//! Criterion bench: adaptive refinement vs exhaustive sweeping of a
//! continuous axis, recorded in `BENCH_sweep.json`
//! (`explore_refinement`).
//!
//! The space is [`tdc_bench::pareto_space`] — the checked-in
//! `scenarios/pareto_3d_vs_2d.json` question (micro-bumped 3D vs
//! planar 2D under a bandwidth-hungry mission, winner flipping at a
//! service-lifetime crossing near 5.4 years), shared with the
//! `perf_guard` CI smoke so the recorded numbers and the enforced
//! floors measure the same thing. Three regimes:
//!
//! * `cold-exhaustive-same-resolution` — a fresh executor sweeping a
//!   uniform lifetime grid fine enough to localize the crossing to
//!   the refinement tolerance: the pre-explore way to find the flip.
//! * `adaptive-refine-cold` — `explore::run` with bisection on a
//!   fresh executor: the initial coarse samples plus O(log) bisection
//!   evaluations, each reusing every non-operational stage.
//! * `adaptive-refine-warm` — the same exploration on a long-lived
//!   executor (the `tdc serve` steady state): every sample answers
//!   fully from the per-stage store.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdc_bench::pareto_space::{self, BASE_YEARS, LIFETIME_RANGE};
use tdc_core::explore;
use tdc_core::sweep::SweepExecutor;
use tdc_core::{CarbonModel, ModelContext};

/// The exhaustive comparator regime: evaluate the plan at every value
/// of a uniform grid whose step equals the refinement tolerance — the
/// resolution the adaptive loop reaches with far fewer evaluations.
fn exhaustive_same_resolution(executor: &SweepExecutor, samples: usize) {
    let ctx = ModelContext::default();
    let base = pareto_space::workload();
    let plan = pareto_space::plan();
    #[allow(clippy::cast_precision_loss)]
    let step = (LIFETIME_RANGE.1 - LIFETIME_RANGE.0) / (samples - 1) as f64;
    for i in 0..samples {
        #[allow(clippy::cast_precision_loss)]
        let years = LIFETIME_RANGE.0 + step * i as f64;
        let scaled = base.scaled(years / BASE_YEARS);
        let model = CarbonModel::new(ctx.clone());
        black_box(executor.execute(&model, &plan, &scaled).expect("sweeps"));
    }
}

fn bench_explore(c: &mut Criterion) {
    let ctx = ModelContext::default();
    let (plan, w, spec) = (
        pareto_space::plan(),
        pareto_space::workload(),
        pareto_space::spec(),
    );
    // Grid resolution matching the default tolerance (range/256 →
    // 257 samples would be exact; 257 evaluations of a 4-point plan).
    let exhaustive_samples = 257;

    let mut group = c.benchmark_group("explore_refinement");

    group.bench_function("cold-exhaustive-same-resolution", |b| {
        b.iter(|| exhaustive_same_resolution(&SweepExecutor::serial(), exhaustive_samples));
    });

    group.bench_function("adaptive-refine-cold", |b| {
        b.iter(|| {
            let executor = SweepExecutor::serial();
            black_box(explore::run(&executor, &ctx, &plan, &w, &spec).expect("explores"));
        });
    });

    let warm = SweepExecutor::serial();
    explore::run(&warm, &ctx, &plan, &w, &spec).expect("warms");
    group.bench_function("adaptive-refine-warm", |b| {
        b.iter(|| {
            black_box(explore::run(&warm, &ctx, &plan, &w, &spec).expect("explores"));
        });
    });

    group.finish();

    // Sanity for the recorded numbers (the same counters the CI perf
    // guard floors): the adaptive loop localizes the crossing within
    // tolerance, its refinement evaluations answer most stage lookups
    // from the store, and a fresh-executor-per-sample exhaustive sweep
    // of the same evaluation count runs at least twice as many stages.
    let probe = SweepExecutor::serial();
    let result = explore::run(&probe, &ctx, &plan, &w, &spec).expect("explores");
    let refine = result.report().refine.as_ref().expect("refinement ran");
    assert_eq!(refine.crossings.len(), 1, "the lifetime crossing exists");
    let tolerance = (LIFETIME_RANGE.1 - LIFETIME_RANGE.0) / 256.0;
    let c0 = &refine.crossings[0];
    assert!(c0.upper - c0.lower <= tolerance * 1.0001);
    assert!(
        refine.evaluations < exhaustive_samples / 10,
        "adaptive must need an order of magnitude fewer evaluations"
    );
    let refine_rate = result.stats().refine_stages.warm_hit_rate();
    assert!(
        refine_rate > 0.5,
        "refinement mostly hits, got {refine_rate}"
    );
    let cold = pareto_space::cold_exhaustive_stages(refine.evaluations);
    let refine_runs = result.stats().refine_stages.misses();
    assert!(
        cold.misses() >= 2 * refine_runs,
        "refinement ran {refine_runs} stages, the cold exhaustive sweep only {}",
        cold.misses()
    );
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
