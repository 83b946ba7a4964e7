//! The enumerated form of a sweep: [`SweepPlan`] and [`SweepPoint`].
//!
//! A plan is a *pure description* — building one performs no model
//! evaluation — that can be inspected, filtered, and handed to a
//! [`SweepExecutor`](crate::sweep::SweepExecutor). It is not free to
//! build, though: a large plan allocates one design per point and,
//! on first execution, one [`DesignKey`] per point. So
//! [`DesignSweep::plan`] memoizes the last plan it built (see
//! [`PlanMemo`]), and re-asking one sweep shape clones the plan
//! instead of enumerating it again. The point index assigned at
//! construction is the determinism anchor: executors report results
//! in index order no matter how many workers evaluated them.

use super::cache::DesignKey;
use super::DesignSweep;
use crate::design::ChipDesign;
use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use tdc_integration::IntegrationTechnology;
use tdc_technode::ProcessNode;

/// One enumerated design point of a sweep, not yet evaluated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    index: usize,
    label: String,
    node: ProcessNode,
    technology: Option<IntegrationTechnology>,
    tiers: u32,
    design: Arc<ChipDesign>,
}

impl SweepPoint {
    /// Creates a point. `index` must be the point's position in its
    /// plan — [`SweepPlan::new`] re-checks this invariant.
    #[must_use]
    pub(crate) fn new(
        index: usize,
        label: String,
        node: ProcessNode,
        technology: Option<IntegrationTechnology>,
        tiers: u32,
        design: ChipDesign,
    ) -> Self {
        Self {
            index,
            label,
            node,
            technology,
            tiers,
            design: Arc::new(design),
        }
    }

    /// The point's stable position in its plan (the determinism
    /// tie-break used when ranking equal-carbon entries).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Human-readable `"<node>/<tech>"` label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The process node of the point.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// The integration technology (`None` = monolithic 2D reference).
    #[must_use]
    pub fn technology(&self) -> Option<IntegrationTechnology> {
        self.technology
    }

    /// Die/tier count of the point's design (1 for the 2D reference).
    #[must_use]
    pub fn tiers(&self) -> u32 {
        self.tiers
    }

    /// The design to evaluate at this point. It is shared: every
    /// [`SweepEntry`](crate::sweep::SweepEntry) ranked from this point
    /// holds the same [`Arc`], and clones of the plan share it too.
    #[must_use]
    pub fn design(&self) -> &Arc<ChipDesign> {
        &self.design
    }
}

/// A fully-enumerated sweep: every point that will be evaluated, in a
/// fixed, deterministic order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPlan {
    points: Vec<SweepPoint>,
    /// One [`DesignKey`] per point, built on the first execution (or
    /// by [`PlanMemo`] before it publishes the plan) and carried with
    /// the plan from then on: the engine identifies its resident plan
    /// by them on *every* call, and every cache entry computed for a
    /// point shares its key. Clones share the built keys, so a
    /// memoized plan's clones all answer the engine by pointer;
    /// deserialized plans rebuild them on first use.
    #[serde(skip)]
    keys: OnceLock<Arc<[Arc<DesignKey>]>>,
}

// Manual impl (can't be derived next to `OnceLock`): plans are equal
// iff their point lists are — the cached keys are pure memo.
impl PartialEq for SweepPlan {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl SweepPlan {
    /// Wraps an ordered point list into a plan.
    ///
    /// # Panics
    ///
    /// Panics when a point's `index` disagrees with its position —
    /// that would silently break result ordering.
    #[must_use]
    pub(crate) fn new(points: Vec<SweepPoint>) -> Self {
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i, "sweep point index out of order");
        }
        Self {
            points,
            keys: OnceLock::new(),
        }
    }

    /// The design key of every point, in index order (memoized; see
    /// the field doc).
    pub(crate) fn keys(&self) -> &Arc<[Arc<DesignKey>]> {
        self.keys.get_or_init(|| {
            self.designs()
                .map(|design| Arc::new(DesignKey::new(design)))
                .collect()
        })
    }

    /// The enumerated points, in evaluation-index order.
    #[must_use]
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The designs of every point, in index order. This sequence is
    /// exactly what the executor identifies a plan by: labels and axis
    /// metadata are presentation, the designs are what the pipeline
    /// evaluates.
    pub fn designs(&self) -> impl Iterator<Item = &ChipDesign> + '_ {
        self.points.iter().map(|point| &*point.design)
    }

    /// Number of points in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A plan-memo slot: the last sweep that planned successfully, with
/// its plan.
type Slot = Option<(DesignSweep, Arc<SweepPlan>)>;

/// The process-wide memo behind [`DesignSweep::plan`].
pub(super) static PLAN_MEMO: PlanMemo = PlanMemo::new();

/// A one-slot plan memo keyed by sweep shape
/// ([`DesignSweep::same_shape`]).
///
/// One slot matches the engine, which keeps columns for one resident
/// plan: a stream of requests over one design space hits every time,
/// and a new shape replaces the old one. The slot keeps at most one
/// plan alive after its request ends. Sharing a plan is safe because
/// it is immutable and depends on nothing but its sweep's shape:
/// names and packs are resolved to enums before a [`DesignSweep`]
/// exists, so two equal sweeps under different registries still
/// enumerate the same designs.
///
/// The lock is held only to compare the key and to clone or swap an
/// [`Arc`]; enumeration, the key build and the plan clone all run
/// outside it.
pub(super) struct PlanMemo {
    slot: Mutex<Slot>,
}

impl PlanMemo {
    pub(super) const fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        // The slot is only ever replaced whole, so a thread that
        // panicked while holding the lock left it whole or empty: keep
        // using it rather than turning every later sweep into a panic.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `sweep`'s plan: a clone of the memoized one when the shapes
    /// match, otherwise a fresh enumeration that then takes the slot.
    pub(super) fn plan(&self, sweep: &DesignSweep) -> Result<SweepPlan, ModelError> {
        let hit = self
            .lock()
            .as_ref()
            .filter(|(shape, _)| shape.same_shape(sweep))
            .map(|(_, plan)| Arc::clone(plan));
        if let Some(plan) = hit {
            return Ok(SweepPlan::clone(&plan));
        }
        let plan = sweep.enumerate()?;
        // Build the keys before publishing, so every clone shares them
        // instead of building its own.
        plan.keys();
        let published = Arc::new(plan.clone());
        let evicted = self.lock().replace((sweep.clone(), published));
        // Freed after the guard is gone: a plan is never dropped under
        // the lock.
        drop(evicted);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_units::Efficiency;

    #[test]
    fn plan_is_pure_and_indexed() {
        let plan = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap();
        assert_eq!(plan.len(), 9); // 2D + 8 technologies
        assert!(!plan.is_empty());
        for (i, p) in plan.points().iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.node(), ProcessNode::N7);
            assert!(!p.label().is_empty());
            assert!(!p.design().dies().is_empty());
        }
        // The 2D reference has one die and no technology.
        let mono = &plan.points()[0];
        assert_eq!(mono.technology(), None);
        assert_eq!(mono.design().dies().len(), 1);
        // Split points carry the requested tier count.
        assert!(plan.points()[1..]
            .iter()
            .all(|p| p.tiers() == 2 && p.design().dies().len() == 2));
    }

    #[test]
    #[should_panic(expected = "index out of order")]
    fn misordered_points_are_rejected() {
        let plan = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap();
        let mut points = plan.points().to_vec();
        points.swap(0, 1);
        let _ = SweepPlan::new(points);
    }

    // The memo tests below use their own `PlanMemo`: the process-wide
    // one is shared with every other test in this binary, which may
    // replace its plan at any moment. `crates/cli/tests/plan_memo_cli.rs`
    // covers the process-wide path in a process of its own.

    fn sweep(gates: f64) -> DesignSweep {
        DesignSweep::new(gates)
            .nodes(vec![ProcessNode::N7, ProcessNode::N5])
            .tier_counts(vec![2, 3])
    }

    /// Every point's design and the key array are the same
    /// allocations in both plans.
    fn assert_shared(a: &SweepPlan, b: &SweepPlan) {
        assert!(Arc::ptr_eq(a.keys(), b.keys()));
        assert_eq!(a.len(), b.len());
        for (p, q) in a.points().iter().zip(b.points()) {
            assert!(Arc::ptr_eq(p.design(), q.design()), "{}", p.label());
        }
    }

    fn assert_same_as_uncached(plan: &SweepPlan, sweep: &DesignSweep) {
        let reference = sweep.enumerate().unwrap();
        // `Debug` shows the built keys too, so build the reference's.
        reference.keys();
        assert_eq!(*plan, reference);
        assert_eq!(format!("{plan:?}"), format!("{reference:?}"));
    }

    #[test]
    fn equal_sweeps_share_one_plan_with_built_keys() {
        let memo = PlanMemo::new();
        let a = memo.plan(&sweep(9.0e9)).unwrap();
        // Published with its keys already built.
        assert!(a.keys.get().is_some());
        let b = memo.plan(&sweep(9.0e9)).unwrap();
        assert_shared(&a, &b);
        assert_same_as_uncached(&b, &sweep(9.0e9));
    }

    #[test]
    fn a_one_ulp_gate_count_change_gets_its_own_plan() {
        let gates = 9.0e9_f64;
        let next = f64::from_bits(gates.to_bits() + 1);
        let memo = PlanMemo::new();
        let a = memo.plan(&sweep(gates)).unwrap();
        let b = memo.plan(&sweep(next)).unwrap();
        assert_ne!(a, b);
        assert!(!Arc::ptr_eq(a.keys(), b.keys()));
        assert_same_as_uncached(&b, &sweep(next));
        // Signed zeros differ by bit pattern, so they never share.
        let zero = |z: f64| sweep(gates).efficiency(Efficiency::from_tops_per_watt(z));
        assert!(!zero(0.0).same_shape(&zero(-0.0)));
        assert!(zero(0.0).same_shape(&zero(0.0)));
    }

    #[test]
    fn alternating_shapes_replan_to_the_uncached_plans() {
        let memo = PlanMemo::new();
        let (a, b) = (sweep(9.0e9), sweep(4.0e9).tiers(4));
        let first = memo.plan(&a).unwrap();
        assert_same_as_uncached(&first, &a);
        assert_same_as_uncached(&memo.plan(&b).unwrap(), &b);
        let again = memo.plan(&a).unwrap();
        assert_same_as_uncached(&again, &a);
        // B took the one slot, so A was enumerated afresh.
        assert!(!Arc::ptr_eq(first.keys(), again.keys()));
    }

    #[test]
    fn failed_plans_are_not_memoized() {
        let memo = PlanMemo::new();
        let good = memo.plan(&sweep(9.0e9)).unwrap();
        // A negative efficiency fails die validation on every point.
        let bad = sweep(9.0e9).efficiency(Efficiency::from_tops_per_watt(-1.0));
        let err = memo.plan(&bad).unwrap_err();
        assert_eq!(err, bad.enumerate().unwrap_err());
        assert_eq!(memo.plan(&bad).unwrap_err(), err);
        // The slot still holds the last successful plan.
        assert_shared(&good, &memo.plan(&sweep(9.0e9)).unwrap());
    }

    #[test]
    fn a_poisoned_slot_keeps_serving_plans() {
        let memo = PlanMemo::new();
        let a = memo.plan(&sweep(9.0e9)).unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = memo.slot.lock();
                panic!("poison the plan memo");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(memo.slot.is_poisoned());
        assert_shared(&a, &memo.plan(&sweep(9.0e9)).unwrap());
        assert_same_as_uncached(&memo.plan(&sweep(4.0e9)).unwrap(), &sweep(4.0e9));
    }

    #[test]
    fn concurrent_callers_alternating_two_shapes_get_correct_plans() {
        let memo = PlanMemo::new();
        let shapes = [sweep(9.0e9), sweep(4.0e9).tiers(4)];
        let references = shapes.each_ref().map(|s| s.enumerate().unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let (memo, shapes, references) = (&memo, &shapes, &references);
                s.spawn(move || {
                    for i in 0..50 {
                        let k = (t + i) % 2;
                        assert_eq!(memo.plan(&shapes[k]).unwrap(), references[k]);
                    }
                });
            }
        });
    }
}
