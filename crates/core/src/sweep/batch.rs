//! The sweep engine behind [`SweepExecutor::execute`]: a
//! [`SweepPlan`] lowered into structure-of-arrays form ([`PlanState`])
//! so sweeps run as columnar kernels instead of per-point struct
//! plumbing.
//!
//! The engine keeps the plan's artifacts in *stage columns*: one slot
//! vector per pipeline stage, aligned with the plan's point indices,
//! tagged with the stage's input-slice fingerprint. A re-execution
//! compares five tags (computed once per call, not per point) and then
//! **delta-evaluates**: stages whose context slice is structurally
//! unchanged are answered by indexed column loads — no hashing, no
//! locks — and only the stages whose tag changed walk their points
//! again.
//!
//! Two layers compose:
//!
//! * **columns** are the within-plan structural layer — the fast path
//!   for re-ranking the plan under new downstream axes;
//! * the shared [`EvalCache`] is the cross-plan warmth layer — every
//!   column miss consults *and populates* the keyed store under the
//!   point's [`DesignKey`](super::DesignKey) (built once per plan
//!   point and memoized on the plan), so switching plans (or mixing
//!   `run`/`sweep`/`explore` requests in a session) reuses artifacts
//!   across plan shapes.
//!
//! A fully warm call — every head column tagged for the current
//! configuration and complete — skips the point loop entirely: it
//! ranks the pre-computed life-cycle totals with **zero heap
//! allocations per point** (enforced by
//! `crates/core/tests/batch_alloc.rs`). Cold or partially warm calls
//! shard the point range into contiguous chunks stolen by scoped
//! workers ([`chunk_size`] indices per steal), so parallel fills pay
//! synchronization once per chunk instead of once per point.
//!
//! Output equals a per-point [`CarbonModel::lifecycle`] evaluation bit
//! for bit, for any worker count: totals are computed by the same
//! floating-point expression ([`pipeline::lifecycle_total`]) and ranked
//! by (total, plan index).

use super::cache::{
    DesignKey, EmbodiedOutcome, EvalCache, PipelineStats, PointLookup, PointSlots, Slot, StageTags,
    Stamp,
};
use super::executor::{SweepExecutor, SweepStats};
use super::plan::{SweepPlan, SweepPoint};
use super::SweepEntry;
use crate::design::ChipDesign;
use crate::error::ModelError;
use crate::model::{CarbonModel, LifecycleReport};
use crate::operational::{OperationalReport, Workload};
use crate::pipeline::{self, PhysicalProfile, PowerProfile};
use std::sync::{Arc, Mutex};

/// One ranked point of a batch evaluation: the plan index and the
/// life-cycle total it was ranked by. Look the point up via the plan
/// (`plan.points()[index]`) when needed — the ranking itself stays
/// allocation-free. [`SweepExecutor::execute`] turns the same ranking
/// into [`SweepEntry`] values that share the plan's design and the
/// engine's cached reports, so the only thing it allocates per point
/// is the entry's label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPoint {
    /// The point's index in its plan.
    pub index: usize,
    /// Life-cycle total (kg CO₂e) — the ranking key.
    pub total_kg: f64,
}

/// Reusable output buffer of
/// [`SweepExecutor::execute_batched_ranking`]: ranked points plus the
/// run's statistics. Reuse one value across calls — a warm call then
/// performs no per-point allocations at all.
#[derive(Debug, Default)]
pub struct BatchRanking {
    pub(crate) ranked: Vec<RankedPoint>,
    pub(crate) stats: SweepStats,
}

impl BatchRanking {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Points ranked by life-cycle total, lowest first (plan index
    /// breaks exact ties) — the same order
    /// [`SweepResult::entries`](super::SweepResult::entries) uses.
    #[must_use]
    pub fn ranked(&self) -> &[RankedPoint] {
        &self.ranked
    }

    /// Statistics of the most recent call on this buffer, a failed
    /// one included (its ranking is left empty): the lookups a call
    /// made before failing are counted too.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// The executor-resident engine state: stage columns of the most
/// recently executed plan plus the memoized stage tags of recent
/// configurations, behind one lock (calls on a shared executor
/// serialize).
#[derive(Debug, Default)]
pub(crate) struct BatchEngine {
    state: Mutex<EngineState>,
}

#[derive(Debug, Default)]
struct EngineState {
    /// Most recently used first; capped at [`TAG_MEMO_LIMIT`].
    tags: Vec<TagEntry>,
    plan: Option<PlanState>,
}

/// Configurations the tag memo keeps. Interactive re-ranking loops
/// alternate over a handful of (grid, lifetime) configurations; one
/// slot would thrash while unbounded growth would leak on
/// registry-scale axis sweeps.
const TAG_MEMO_LIMIT: usize = 16;

/// Memoized [`EvalCache::stage_tags`] of one configuration.
/// `stage_tags` renders and hashes every context fingerprint on each
/// call (tens of microseconds) — far too slow for a warm batch call —
/// so the engine compares the configuration *structurally* and reuses
/// the tags when nothing changed. Equality of (context, power-model
/// fingerprint, workload) implies equality of every string
/// `stage_tags` would build, so the memo can never desynchronize the
/// tags from the keyed cache. Trace-backed workloads keep this cheap:
/// a `TraceProfile` compares by content fingerprint (O(1)), never by
/// walking its segment columns — and the same fingerprint is what the
/// operational tag renders, so a changed trace re-tags exactly like a
/// changed utilization scalar while an unchanged trace stays warm.
#[derive(Debug)]
struct TagEntry {
    context: crate::ModelContext,
    power_fp: String,
    workload: Workload,
    tags: StageTags,
}

impl EngineState {
    fn resolve_tags(&mut self, model: &CarbonModel, workload: &Workload) -> StageTags {
        let power_fp = model.power_model().fingerprint();
        // Workload first: it's the cheapest discriminator (lifetime /
        // utilization axes differ in the first fields), while context
        // equality walks the whole technology database.
        if let Some(i) = self.tags.iter().position(|e| {
            e.workload == *workload && e.power_fp == power_fp && e.context == *model.context()
        }) {
            if i != 0 {
                let entry = self.tags.remove(i);
                self.tags.insert(0, entry);
            }
            return self.tags[0].tags;
        }
        let tags = EvalCache::stage_tags(model, Some(workload));
        self.tags.insert(
            0,
            TagEntry {
                context: model.context().clone(),
                power_fp,
                workload: workload.clone(),
                tags,
            },
        );
        self.tags.truncate(TAG_MEMO_LIMIT);
        tags
    }
}

/// Structure-of-arrays form of one plan: per-stage slot columns
/// aligned with point indices.
#[derive(Debug)]
struct PlanState {
    /// The plan's point keys: its identity (see [`PlanState::holds`]).
    keys: Arc<[Arc<DesignKey>]>,
    phys: StageColumns<Arc<PhysicalProfile>>,
    emb: StageColumns<EmbodiedOutcome>,
    power: StageColumns<Arc<PowerProfile>>,
    op: StageColumns<Arc<OperationalReport>>,
    totals: StageColumns<f64>,
}

impl PlanState {
    fn new(keys: Arc<[Arc<DesignKey>]>) -> Self {
        Self {
            keys,
            phys: StageColumns::default(),
            emb: StageColumns::default(),
            power: StageColumns::default(),
            op: StageColumns::default(),
            totals: StageColumns::default(),
        }
    }

    /// Whether these columns belong to a plan with exactly `keys`'
    /// design sequence. The same plan (or a clone) shares the keys and
    /// answers by pointer — the common case, since
    /// [`DesignSweep::plan`](super::DesignSweep::plan) hands every
    /// caller of one sweep shape a clone of one memoized plan. A plan
    /// enumerated afresh compares key by key, and a different plan
    /// usually fails on its first key.
    fn holds(&self, keys: &Arc<[Arc<DesignKey>]>) -> bool {
        Arc::ptr_eq(&self.keys, keys) || *self.keys == **keys
    }
}

/// One stage's columns, most recently used first. The list is capped
/// so a stage never retains more than the cache's artifact cap worth
/// of slots (`cap / plan_len` columns).
#[derive(Debug)]
struct StageColumns<T> {
    columns: Vec<Column<T>>,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for StageColumns<T> {
    fn default() -> Self {
        Self {
            columns: Vec::new(),
        }
    }
}

/// One configuration's slot vector for one stage: `slots[i]` is the
/// stage artifact of plan point `i`, `tag` is the stage's input-slice
/// fingerprint, `stamp` the (request epoch, client) its values were
/// last written under (for cross-request and cross-client
/// attribution), and `complete` whether every point was resolved —
/// the warm fast path requires it.
#[derive(Debug)]
struct Column<T> {
    tag: u64,
    stamp: Stamp,
    complete: bool,
    slots: Vec<Option<T>>,
}

impl<T> StageColumns<T> {
    /// Removes the column tagged `tag` (the caller stores it back
    /// after use, which moves it to the most-recent position), or
    /// builds a fresh empty one.
    fn take(&mut self, tag: u64, len: usize) -> Column<T> {
        if let Some(i) = self
            .columns
            .iter()
            .position(|c| c.tag == tag && c.slots.len() == len)
        {
            self.columns.remove(i)
        } else {
            let mut slots = Vec::with_capacity(len);
            slots.resize_with(len, || None);
            Column {
                tag,
                stamp: Stamp::default(),
                complete: false,
                slots,
            }
        }
    }

    /// Returns a column to the front of the list, evicting
    /// least-recently-used columns beyond `limit`.
    fn store(&mut self, column: Column<T>, limit: usize) {
        self.columns.insert(0, column);
        self.columns.truncate(limit);
    }
}

/// How many columns one stage may retain for a plan of `len` points —
/// the same artifact budget as the keyed cache's per-stage cap.
fn columns_limit(cap: usize, len: usize) -> usize {
    (cap / len.max(1)).max(1)
}

/// Everything a fill worker reads, shared immutably across threads.
struct FillCtx<'a> {
    cache: &'a EvalCache,
    tags: &'a StageTags,
    model: &'a CarbonModel,
    workload: &'a Workload,
    /// The (epoch, client) this fill runs under.
    stamp: Stamp,
    /// Each stage column's last-written stamp, for attributing column
    /// hits exactly like keyed-cache hits.
    phys_col: Stamp,
    emb_col: Stamp,
    power_col: Stamp,
    op_col: Stamp,
}

/// Per-worker fill bookkeeping, merged after the scope joins.
#[derive(Default)]
struct FillOut {
    /// Lookups that went to the keyed cache.
    keyed: PipelineStats,
    /// Lookups answered structurally by the plan's stage columns,
    /// never touching the keyed cache (the call's delta-skips).
    col: PipelineStats,
    evaluated: usize,
    dropped: usize,
    point_hits: usize,
    point_misses: usize,
    /// Lowest-indexed genuine model error: the reported error does not
    /// depend on the worker count.
    error: Option<(usize, ModelError)>,
}

impl FillOut {
    fn merge(&mut self, other: FillOut) {
        self.keyed = self.keyed.merged(&other.keyed);
        self.col = self.col.merged(&other.col);
        self.evaluated += other.evaluated;
        self.dropped += other.dropped;
        self.point_hits += other.point_hits;
        self.point_misses += other.point_misses;
        if let Some((i, e)) = other.error {
            if self.error.as_ref().is_none_or(|(j, _)| i < *j) {
                self.error = Some((i, e));
            }
        }
    }
}

/// The plan's stage columns, as parallel slot slices.
struct Columns<'a> {
    phys: &'a mut [Option<Arc<PhysicalProfile>>],
    emb: &'a mut [Option<EmbodiedOutcome>],
    power: &'a mut [Option<Arc<PowerProfile>>],
    op: &'a mut [Option<Arc<OperationalReport>>],
    totals: &'a mut [Option<f64>],
}

impl<'a> Columns<'a> {
    /// Point `i`'s slot in every stage column (each tagged with its
    /// column's last-written stamp from `ctx`) and its total slot.
    fn slots(&mut self, i: usize, ctx: &FillCtx<'_>) -> (PointSlots<'_>, &mut Option<f64>) {
        let slots = PointSlots {
            phys: Slot {
                value: &mut self.phys[i],
                written: ctx.phys_col,
            },
            emb: Slot {
                value: &mut self.emb[i],
                written: ctx.emb_col,
            },
            power: Slot {
                value: &mut self.power[i],
                written: ctx.power_col,
            },
            op: Slot {
                value: &mut self.op[i],
                written: ctx.op_col,
            },
        };
        (slots, &mut self.totals[i])
    }

    /// Splits the columns into aligned runs of `chunk` points.
    fn chunks(self, chunk: usize) -> Vec<Columns<'a>> {
        let mut out = Vec::new();
        let zipped = self
            .phys
            .chunks_mut(chunk)
            .zip(self.emb.chunks_mut(chunk))
            .zip(self.power.chunks_mut(chunk))
            .zip(self.op.chunks_mut(chunk))
            .zip(self.totals.chunks_mut(chunk));
        for ((((phys, emb), power), op), totals) in zipped {
            out.push(Columns {
                phys,
                emb,
                power,
                op,
                totals,
            });
        }
        out
    }
}

/// Fills one point's missing slots (column → cache → compute per
/// stage, see [`EvalCache::eval_point`]) and writes its life-cycle
/// total. Returns the every-stage-hit flag and whether the point
/// ranked (false = oversized drop).
fn eval_slots(
    ctx: &FillCtx<'_>,
    design: &ChipDesign,
    key: &Arc<DesignKey>,
    (slots, total): (PointSlots<'_>, &mut Option<f64>),
    out: &mut FillOut,
) -> Result<(bool, bool), ModelError> {
    let point = PointLookup {
        tags: ctx.tags,
        model: ctx.model,
        design,
        design_key: key,
        stamp: ctx.stamp,
    };
    let artifacts = ctx.cache.eval_point(
        &point,
        Some(ctx.workload),
        slots,
        &mut out.keyed,
        &mut out.col,
    )?;
    *total = match (&artifacts.embodied, &artifacts.operational) {
        (EmbodiedOutcome::Report(emb), Some(op)) => Some(pipeline::lifecycle_total(emb, op).kg()),
        _ => None,
    };
    Ok((artifacts.all_hit, total.is_some()))
}

/// Evaluates one point into its slots, folding the outcome into the
/// worker-local bookkeeping.
fn fill_point(
    ctx: &FillCtx<'_>,
    index: usize,
    point: &SweepPoint,
    key: &Arc<DesignKey>,
    slots: (PointSlots<'_>, &mut Option<f64>),
    out: &mut FillOut,
) {
    match eval_slots(ctx, point.design(), key, slots, out) {
        Ok((all_hit, ranked)) => {
            if all_hit {
                out.point_hits += 1;
            } else {
                out.point_misses += 1;
            }
            if ranked {
                out.evaluated += 1;
            } else {
                out.dropped += 1;
            }
        }
        Err(e) => {
            out.point_misses += 1;
            if out.error.as_ref().is_none_or(|(j, _)| index < *j) {
                out.error = Some((index, e));
            }
        }
    }
}

/// Fills every missing slot, serially or via chunked work-stealing.
/// Every point is evaluated even when one fails, which is what makes
/// the reported error (lowest plan index) deterministic under any
/// worker count.
fn fill(
    ctx: &FillCtx<'_>,
    points: &[SweepPoint],
    keys: &[Arc<DesignKey>],
    workers: usize,
    mut columns: Columns<'_>,
) -> FillOut {
    if workers <= 1 || points.len() <= 1 {
        let mut local = FillOut::default();
        for (i, (point, key)) in points.iter().zip(keys).enumerate() {
            fill_point(ctx, i, point, key, columns.slots(i, ctx), &mut local);
        }
        return local;
    }

    let chunk = chunk_size(points.len(), workers);
    let tasks = points
        .chunks(chunk)
        .zip(keys.chunks(chunk))
        .zip(columns.chunks(chunk))
        .enumerate()
        .map(|(c, ((points, keys), columns))| (c * chunk, points, keys, columns));
    let queue = Mutex::new(tasks);
    let locals: Vec<FillOut> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = &queue;
            handles.push(scope.spawn(move || {
                let mut local = FillOut::default();
                loop {
                    let stolen = queue.lock().expect("steal queue poisoned").next();
                    let Some((start, points, keys, mut columns)) = stolen else {
                        break;
                    };
                    for (o, (point, key)) in points.iter().zip(keys).enumerate() {
                        fill_point(
                            ctx,
                            start + o,
                            point,
                            key,
                            columns.slots(o, ctx),
                            &mut local,
                        );
                    }
                }
                local
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut merged = FillOut::default();
    for local in locals {
        merged.merge(local);
    }
    merged
}

/// The contiguous index range one steal claims: small enough that 8
/// workers rebalance a skewed plan (~8 steals each), large enough that
/// synchronization is paid once per dozens of points, capped so huge
/// plans still rebalance.
fn chunk_size(points: usize, workers: usize) -> usize {
    (points / (workers * 8).max(1)).clamp(16, 4096)
}

/// The execution core shared by [`SweepExecutor::execute`] (which
/// passes `entries`) and [`SweepExecutor::execute_batched_ranking`]
/// (which does not).
pub(crate) fn run(
    exec: &SweepExecutor,
    model: &CarbonModel,
    plan: &SweepPlan,
    workload: &Workload,
    out: &mut BatchRanking,
    entries: Option<&mut Vec<SweepEntry>>,
) -> Result<(), ModelError> {
    let _obs = tdc_obs::span("sweep.execute_batched");
    let cache = exec.cache();
    let stamp = cache.current_stamp();
    let n = plan.len();
    let keys = plan.keys();
    let limit = columns_limit(cache.artifact_cap(), n);

    let mut guard = exec
        .engine()
        .state
        .lock()
        .expect("sweep engine lock poisoned");
    let tags = guard.resolve_tags(model, workload);
    if !matches!(guard.plan.as_ref(), Some(s) if s.holds(keys)) {
        // A different plan owns the columns: drop them and start
        // fresh. The keyed cache still answers warm artifacts.
        guard.plan = Some(PlanState::new(Arc::clone(keys)));
    }
    let state = guard.plan.as_mut().expect("batch state present");

    let totals_tag = tags.embodied ^ tags.operational.rotate_left(17);
    let mut emb_col = state.emb.take(tags.embodied, n);
    let mut op_col = state.op.take(tags.operational, n);
    let mut totals_col = state.totals.take(totals_tag, n);

    let mut stats = SweepStats {
        points: n,
        workers: 1,
        ..SweepStats::default()
    };

    let warm = emb_col.complete && op_col.complete && totals_col.complete;
    let result = if warm {
        // ---- Warm fast path: both artifact heads and the totals are
        // column-resident for this exact configuration. No threads, no
        // keys, no cache traffic — and no per-point allocations.
        let evaluated = totals_col.slots.iter().filter(|s| s.is_some()).count();
        stats.evaluated = evaluated;
        stats.dropped = n - evaluated;
        stats.cache_hits = n;
        let mut col = PipelineStats::default();
        col.embodied.record(n as u64, Some(emb_col.stamp), stamp);
        col.operational
            .record(evaluated as u64, Some(op_col.stamp), stamp);
        stats.stages = col;
        stats.delta_skips = col.hits();
        Ok(())
    } else {
        // ---- Fill: compute exactly the missing slots (delta-eval),
        // consulting the keyed cache at every column miss.
        let workers = exec.resolve_workers(n);
        stats.workers = workers;
        let mut phys_col = state.phys.take(tags.physical, n);
        let mut power_col = state.power.take(tags.power, n);
        let ctx = FillCtx {
            cache,
            tags: &tags,
            model,
            workload,
            stamp,
            phys_col: phys_col.stamp,
            emb_col: emb_col.stamp,
            power_col: power_col.stamp,
            op_col: op_col.stamp,
        };
        let merged = fill(
            &ctx,
            plan.points(),
            keys,
            workers,
            Columns {
                phys: &mut phys_col.slots,
                emb: &mut emb_col.slots,
                power: &mut power_col.slots,
                op: &mut op_col.slots,
                totals: &mut totals_col.slots,
            },
        );
        // Every keyed lookup writes its answer into the column, so a
        // stage that consulted the store now holds values of this call.
        let keyed = merged.keyed;
        for (column, lookups) in [
            (&mut phys_col.stamp, keyed.physical.lookups()),
            (&mut emb_col.stamp, keyed.embodied.lookups()),
            (&mut power_col.stamp, keyed.power.lookups()),
            (&mut op_col.stamp, keyed.operational.lookups()),
        ] {
            if lookups > 0 {
                *column = stamp;
            }
        }
        phys_col.complete = phys_col.slots.iter().all(Option::is_some);
        power_col.complete = power_col.slots.iter().all(Option::is_some);
        emb_col.complete = emb_col.slots.iter().all(Option::is_some);
        // Oversized points never produce operational artifacts or
        // totals; their slots count as resolved.
        let resolved = |i: usize, filled: bool| {
            filled || matches!(emb_col.slots[i], Some(EmbodiedOutcome::Oversized))
        };
        op_col.complete = emb_col.complete
            && op_col
                .slots
                .iter()
                .enumerate()
                .all(|(i, s)| resolved(i, s.is_some()));
        totals_col.complete = emb_col.complete
            && totals_col
                .slots
                .iter()
                .enumerate()
                .all(|(i, s)| resolved(i, s.is_some()));
        stats.evaluated = merged.evaluated;
        stats.dropped = merged.dropped;
        stats.cache_hits = merged.point_hits;
        stats.cache_misses = merged.point_misses;
        stats.delta_skips = merged.col.hits();
        stats.stages = keyed.merged(&merged.col);
        state.phys.store(phys_col, limit);
        state.power.store(power_col, limit);
        match merged.error {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    };

    // The call's one fold into the ledger, failed or not.
    cache.fold(&stats.stages);
    if tdc_obs::enabled() {
        use tdc_obs::metrics as m;
        m::SWEEP_BATCH_CALLS.inc();
        if warm {
            m::SWEEP_BATCH_WARM_CALLS.inc();
        }
        m::SWEEP_POINTS.add(n as u64);
        m::SWEEP_DELTA_SKIPS.add(stats.delta_skips);
        m::SWEEP_COLUMN_HITS.add(stats.cache_hits as u64);
    }

    out.stats = stats;
    out.ranked.clear();
    if result.is_ok() {
        for (index, slot) in totals_col.slots.iter().enumerate() {
            if let Some(total_kg) = *slot {
                out.ranked.push(RankedPoint { index, total_kg });
            }
        }
        // Unstable sort: allocation-free, and deterministic anyway —
        // the plan-index tie-break makes the key a total order.
        out.ranked.sort_unstable_by(|a, b| {
            a.total_kg
                .total_cmp(&b.total_kg)
                .then(a.index.cmp(&b.index))
        });
        if let Some(entries) = entries {
            for ranked in &out.ranked {
                let point = &plan.points()[ranked.index];
                let Some(EmbodiedOutcome::Report(emb)) = emb_col.slots[ranked.index].as_ref()
                else {
                    unreachable!("ranked point has an embodied artifact")
                };
                let op = op_col.slots[ranked.index]
                    .as_ref()
                    .expect("ranked point has an operational artifact");
                entries.push(SweepEntry {
                    label: point.label().to_owned(),
                    node: point.node(),
                    technology: point.technology(),
                    design: Arc::clone(point.design()),
                    report: LifecycleReport {
                        embodied: Arc::clone(emb),
                        operational: Arc::clone(op),
                    },
                });
            }
        }
    }

    // Columns are stored back even when the fill failed: the partial
    // progress is real, and the next call recomputes only the holes.
    state.emb.store(emb_col, limit);
    state.op.store(op_col, limit);
    state.totals.store(totals_col, limit);

    result
}

/// Ignored-by-default profiling harness: breaks a warm batch call
/// down into its constant-overhead components (stage-tag derivation,
/// design-key building for a rebuilt plan, the ranking loop itself).
/// Run with
/// `cargo test --release -p tdc-core profile_warm -- --ignored --nocapture`
/// when chasing per-call overhead — the warm loop is fast enough that
/// any per-call hashing or formatting dominates it.
#[cfg(test)]
mod profile_tests {
    use super::*;
    use crate::sweep::DesignSweep;
    use tdc_units::{Throughput, TimeSpan};

    #[test]
    #[ignore]
    fn profile_warm_call_breakdown() {
        let plan = DesignSweep::new(17.0e9).plan().unwrap();
        let model = CarbonModel::new(crate::ModelContext::default());
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(254.0),
            TimeSpan::from_hours(10_000.0),
        );
        let executor = SweepExecutor::serial();
        let mut ranking = BatchRanking::new();
        for _ in 0..3 {
            executor
                .execute_batched_ranking(&model, &plan, &workload, &mut ranking)
                .unwrap();
        }
        let n = 10_000u32;
        let t = std::time::Instant::now();
        for _ in 0..n {
            std::hint::black_box(EvalCache::stage_tags(&model, Some(&workload)));
        }
        eprintln!("stage_tags: {:?}/call", t.elapsed() / n);
        let t = std::time::Instant::now();
        for _ in 0..n {
            std::hint::black_box(plan.designs().map(DesignKey::new).count());
        }
        eprintln!("plan keys: {:?}/call", t.elapsed() / n);
        let t = std::time::Instant::now();
        for _ in 0..n {
            executor
                .execute_batched_ranking(&model, &plan, &workload, &mut ranking)
                .unwrap();
        }
        eprintln!("warm ranking: {:?}/call", t.elapsed() / n);
    }
}
