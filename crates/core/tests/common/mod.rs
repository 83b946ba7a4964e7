//! The per-point reference every sweep-engine test compares against:
//! [`CarbonModel::lifecycle`] on each plan point, with no cache, no
//! columns and no threads.

// Each test crate that includes this module reads a different subset.
#![allow(dead_code)]

use tdc_core::sweep::{SweepEntry, SweepPlan};
use tdc_core::{CarbonModel, ModelError, Workload};

/// What the reference produced for a plan.
#[derive(Debug)]
pub struct Reference {
    /// Entries ranked by (life-cycle total, plan index).
    pub entries: Vec<SweepEntry>,
    /// Points whose dies outgrow the wafer.
    pub dropped: usize,
}

/// Evaluates every point of `plan` with [`CarbonModel::lifecycle`],
/// dropping oversized points exactly like a sweep does.
///
/// # Panics
///
/// Panics if any point fails with an error other than
/// [`ModelError::DieExceedsWafer`].
#[must_use]
pub fn lifecycle_reference(
    model: &CarbonModel,
    plan: &SweepPlan,
    workload: &Workload,
) -> Reference {
    let mut ranked: Vec<(usize, SweepEntry)> = Vec::new();
    let mut dropped = 0;
    for (i, point) in plan.points().iter().enumerate() {
        match model.lifecycle(point.design(), workload) {
            Ok(report) => ranked.push((
                i,
                SweepEntry {
                    label: point.label().to_owned(),
                    node: point.node(),
                    technology: point.technology(),
                    design: point.design().clone(),
                    report,
                },
            )),
            Err(ModelError::DieExceedsWafer { .. }) => dropped += 1,
            Err(e) => panic!("reference evaluation of {} failed: {e}", point.label()),
        }
    }
    ranked.sort_by(|(ia, a), (ib, b)| {
        a.report
            .total()
            .kg()
            .total_cmp(&b.report.total().kg())
            .then(ia.cmp(ib))
    });
    Reference {
        entries: ranked.into_iter().map(|(_, e)| e).collect(),
        dropped,
    }
}
