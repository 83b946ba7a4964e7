//! Per-stage artifact store for pipeline evaluations ([`EvalCache`]).
//!
//! The cache memoizes every artifact of the staged pipeline
//! ([`crate::pipeline`]) independently — physical geometry, yields,
//! embodied breakdowns, power characterizations, and operational
//! reports — each under a key composed of the canonical design form
//! plus a fingerprint of *only the inputs that stage reads*. Two sweep
//! points that differ only in downstream axes therefore share every
//! upstream artifact: a grid-region × lifetime sweep over a fixed
//! design set computes each design's embodied breakdown **once**, and
//! re-prices only the operational stage per scenario. The old
//! whole-design cache could not do this — any (model, workload) change
//! invalidated everything.
//!
//! Stage keys compose upstream slices, so an artifact is always a pure
//! function of its key:
//!
//! | artifact | context slice in the key |
//! |----------|--------------------------|
//! | [`PhysicalProfile`] | geometry (tech db, BEOL estimator, TSV keep-out, catalog, package model) |
//! | [`YieldProfile`] | geometry + yield-model choice |
//! | [`EmbodiedBreakdown`](crate::EmbodiedBreakdown) | geometry + yield + fab (grid, wafer, BEOL knobs, packaging) |
//! | [`PowerProfile`] | geometry |
//! | [`OperationalReport`](crate::OperationalReport) | geometry + use grid + bandwidth + power plug-in + workload |
//!
//! The design half of every key is a [`DesignKey`]: the *canonical
//! form of the design* — every die's [`DieSpec`](crate::DieSpec)
//! (name, process node, gate count / area / overrides) plus the
//! integration technology, orientation, and bonding flow — as a
//! compact, injective byte string with a 128-bit fingerprint. Any two
//! points that would produce the same artifact are computed once. A
//! key is built once per plan point (memoized on the
//! [`SweepPlan`](crate::sweep::SweepPlan)) or once per `run` request,
//! and every stage entry shares it by `Arc`. Shards index entries by
//! fingerprint, but a hit also requires the stored bytes to equal the
//! probe's, so a fingerprint collision is a miss — it can never answer
//! with another design's artifact.
//!
//! # Shards and eviction
//!
//! Each stage's store is split into [`SHARD_COUNT`] shards, routed by
//! a mix of the configuration tag, each behind its own `RwLock` — warm
//! lookups take a shared read lock (readers never contend with each
//! other), and only genuine inserts take a shard's write lock. A
//! multi-client server hammering the warm path therefore scales reads,
//! and writers for different configurations rarely touch the same
//! shard.
//!
//! Entries persist across configuration changes (that persistence *is*
//! the reuse); memory stays bounded by per-shard LRU eviction: every
//! entry carries a last-used stamp from a store-wide access clock, and
//! when a shard reaches its share of the per-stage artifact cap, the
//! least-recently-used quarter of that shard is evicted (recomputing
//! is always safe, so eviction can never change results — only
//! recompute costs). The cumulative hit/miss counters live outside the
//! shards and **survive eviction** (and [`EvalCache::clear`]), so a
//! long-running session's stats line never goes backwards mid-stream.
//! Only non-fatal outcomes are stored: a design whose dies outgrow the
//! wafer is remembered as `Oversized`, while genuine model errors
//! always propagate and are re-raised on every attempt.
//!
//! # Requests and clients
//!
//! Long-lived owners bracket each request with
//! [`EvalCache::begin_request`], which advances the *epoch* and
//! records the requesting *client*. Every artifact remembers the
//! (epoch, client) it was inserted under, so a hit can tell
//! within-request reuse from cross-request reuse
//! ([`StageCounters::cross_hits`]) and sharing *between clients* of a
//! multi-client server ([`StageCounters::client_hits`]).

use crate::design::ChipDesign;
use crate::error::ModelError;
use crate::model::{CarbonModel, LifecycleReport};
use crate::operational::{OperationalReport, Workload};
use crate::pipeline::{self, PhysicalProfile, PowerProfile, YieldProfile};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tdc_obs::metrics::Counter;

/// The canonical identity of a design: a compact, length-prefixed
/// (hence injective) byte encoding of every field an artifact depends
/// on, plus a 128-bit fingerprint of those bytes.
///
/// Two keys are equal exactly when their bytes are equal; the
/// fingerprint only routes lookups. Keys are immutable and shared by
/// `Arc`: one per plan point (see
/// [`SweepPlan`](crate::sweep::SweepPlan)) or per `run` request, held
/// by every stage entry computed for it.
///
/// ```
/// use tdc_core::sweep::DesignKey;
/// use tdc_core::{ChipDesign, DieSpec};
/// use tdc_technode::ProcessNode;
///
/// # fn main() -> Result<(), tdc_core::ModelError> {
/// let design = |gates| -> Result<ChipDesign, tdc_core::ModelError> {
///     Ok(ChipDesign::monolithic_2d(
///         DieSpec::builder("d", ProcessNode::N7).gate_count(gates).build()?,
///     ))
/// };
/// assert_eq!(DesignKey::new(&design(5.0e9)?), DesignKey::new(&design(5.0e9)?));
/// assert_ne!(DesignKey::new(&design(5.0e9)?), DesignKey::new(&design(6.0e9)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Eq)]
pub struct DesignKey {
    fingerprint: u128,
    bytes: Box<[u8]>,
}

impl PartialEq for DesignKey {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
            || (self.fingerprint == other.fingerprint && self.bytes == other.bytes)
    }
}

impl DesignKey {
    /// Encodes `design`: the integration variant (technology,
    /// orientation, flow), then per die its length-prefixed name, node,
    /// and the raw bit pattern of every optional numeric field behind a
    /// presence byte.
    #[must_use]
    pub fn new(design: &ChipDesign) -> Self {
        fn bits(out: &mut Vec<u8>, value: Option<f64>) {
            match value {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(4 + 64 * design.dies().len());
        match design {
            ChipDesign::Monolithic2d { .. } => out.push(1),
            ChipDesign::Stack3d {
                tech,
                orientation,
                flow,
                ..
            } => out.extend_from_slice(&[
                2,
                *tech as u8,
                *orientation as u8,
                flow.map_or(0, |f| f as u8 + 1),
            ]),
            ChipDesign::Assembly25d { tech, .. } => out.extend_from_slice(&[3, *tech as u8]),
        }
        for die in design.dies() {
            let name = die.name().as_bytes();
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name);
            out.push(die.node() as u8);
            bits(&mut out, die.gate_count());
            bits(&mut out, die.area_override().map(|a| a.mm2()));
            bits(&mut out, die.beol_override().map(f64::from));
            bits(&mut out, die.efficiency().map(|e| e.tops_per_watt()));
            bits(&mut out, die.compute_share());
            match die.rent() {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    for v in [
                        r.exponent(),
                        r.terminals_per_gate(),
                        r.fanout(),
                        r.external_exponent(),
                    ] {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        Self {
            fingerprint: fingerprint128(&out),
            bytes: out.into_boxed_slice(),
        }
    }

    /// A key for `design` carrying a chosen fingerprint — lets tests
    /// stage a fingerprint collision between two different designs.
    #[cfg(test)]
    pub(crate) fn with_fingerprint(design: &ChipDesign, fingerprint: u128) -> Self {
        Self {
            fingerprint,
            ..Self::new(design)
        }
    }

    /// The 128-bit fingerprint of the encoding.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// The canonical encoding itself.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Two independent multiply-rotate lanes over the 8-byte words of
/// `bytes`, each finished with a 64-bit avalanche. Fast rather than
/// collision-resistant: a collision costs a cache miss, never a wrong
/// answer, because hits compare the bytes.
fn fingerprint128(bytes: &[u8]) -> u128 {
    fn avalanche(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
    let len = bytes.len() as u64;
    let mut a = 0x243f_6a88_85a3_08d3 ^ len;
    let mut b = 0x1319_8a2e_0370_7344 ^ len.rotate_left(32);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        b = (b ^ w.rotate_left(17))
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }
    (u128::from(avalanche(a)) << 64) | u128::from(avalanche(b ^ a.rotate_left(13)))
}

/// A configuration's entries, by design fingerprint. The map keeps
/// std's keyed hasher: designs arrive from clients, and the
/// fingerprint is not keyed.
type ByFingerprint<T> = HashMap<u128, Entry<T>>;

/// What a finished embodied evaluation left behind. Only the two
/// *non-fatal* outcomes are cached.
#[derive(Debug, Clone)]
pub(crate) enum EmbodiedOutcome {
    /// The design evaluated cleanly.
    Report(Arc<crate::embodied::EmbodiedBreakdown>),
    /// The design cannot be built on the configured wafer
    /// ([`ModelError::DieExceedsWafer`]) — a stable property of the
    /// design under this configuration, so remembering it is safe.
    Oversized,
}

/// Hit/miss counters of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounters {
    /// Lookups answered from the store.
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) answered by an artifact
    /// inserted during an *earlier epoch* — i.e. by a previous request
    /// of a long-lived session (epochs advance via
    /// [`EvalCache::begin_request`] /
    /// [`EvalCache::advance_epoch`]). When nothing ever advances the
    /// epoch this stays zero and `hits` counts pure within-request
    /// reuse.
    pub cross_hits: u64,
    /// The subset of [`hits`](Self::hits) answered by an artifact a
    /// *different client* inserted — the cross-client warmth a shared
    /// multi-connection server exists for. Single-client owners (the
    /// CLI one-shot commands, stdin `tdc serve`) never see this move.
    pub client_hits: u64,
    /// Lookups that had to run the stage.
    pub misses: u64,
}

impl StageCounters {
    /// Hit fraction in `[0, 1]` (0 when the stage was never consulted).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// Per-stage hit/miss counters of the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Physical (geometry) stage.
    pub physical: StageCounters,
    /// Yield stage.
    pub yields: StageCounters,
    /// Embodied stage.
    pub embodied: StageCounters,
    /// Power-characterization stage.
    pub power: StageCounters,
    /// Operational stage.
    pub operational: StageCounters,
}

impl PipelineStats {
    fn as_array(&self) -> [StageCounters; 5] {
        [
            self.physical,
            self.yields,
            self.embodied,
            self.power,
            self.operational,
        ]
    }

    /// Lookups answered from the store, summed over all stages.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.hits).sum()
    }

    /// Stage executions, summed over all stages.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.as_array().iter().map(|s| s.misses).sum()
    }

    /// Cross-epoch hits (artifacts computed by an earlier request of a
    /// long-lived session), summed over all stages.
    #[must_use]
    pub fn cross_hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.cross_hits).sum()
    }

    /// Cross-client hits (artifacts another client of a shared session
    /// computed), summed over all stages.
    #[must_use]
    pub fn client_hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.client_hits).sum()
    }

    /// The fraction of all stage lookups answered by artifacts from an
    /// earlier epoch, in `[0, 1]` (0 when nothing was ever looked up).
    #[must_use]
    pub fn cross_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cross_hits() as f64 / total as f64
            }
        }
    }

    /// The fraction of all stage lookups answered by artifacts a
    /// *different client* inserted, in `[0, 1]`.
    #[must_use]
    pub fn client_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.client_hits() as f64 / total as f64
            }
        }
    }

    /// Element-wise sum of two snapshots (used by sessions to
    /// accumulate per-request tallies).
    #[must_use]
    pub fn merged(&self, other: &PipelineStats) -> PipelineStats {
        let add = |a: StageCounters, b: StageCounters| StageCounters {
            hits: a.hits + b.hits,
            cross_hits: a.cross_hits + b.cross_hits,
            client_hits: a.client_hits + b.client_hits,
            misses: a.misses + b.misses,
        };
        PipelineStats {
            physical: add(self.physical, other.physical),
            yields: add(self.yields, other.yields),
            embodied: add(self.embodied, other.embodied),
            power: add(self.power, other.power),
            operational: add(self.operational, other.operational),
        }
    }

    /// Aggregate hit fraction across every stage lookup in `[0, 1]`.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits() as f64 / total as f64
            }
        }
    }

    /// The counter deltas accumulated since `earlier` (a snapshot taken
    /// from the same cache).
    #[must_use]
    pub fn since(&self, earlier: &PipelineStats) -> PipelineStats {
        let diff = |now: StageCounters, then: StageCounters| StageCounters {
            hits: now.hits.saturating_sub(then.hits),
            cross_hits: now.cross_hits.saturating_sub(then.cross_hits),
            client_hits: now.client_hits.saturating_sub(then.client_hits),
            misses: now.misses.saturating_sub(then.misses),
        };
        PipelineStats {
            physical: diff(self.physical, earlier.physical),
            yields: diff(self.yields, earlier.yields),
            embodied: diff(self.embodied, earlier.embodied),
            power: diff(self.power, earlier.power),
            operational: diff(self.operational, earlier.operational),
        }
    }
}

/// Cumulative counters and size of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Per-stage hit/miss counters since construction. Counters
    /// survive eviction and [`EvalCache::clear`] — a long-running
    /// session's stats never go backwards mid-stream.
    pub stages: PipelineStats,
    /// Artifacts currently stored, across all stages.
    pub entries: usize,
    /// Artifacts evicted by the per-shard LRU policy since
    /// construction, across all stages.
    pub evictions: u64,
}

impl CacheStats {
    /// Aggregate hit fraction across every stage lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stages.warm_hit_rate()
    }
}

/// Default upper bound on the artifacts one stage retains. Retention
/// across configurations is the point of the store, but operational
/// artifacts in particular accumulate one entry per (configuration,
/// design) pair forever; the cap is divided across the stage's shards,
/// and a shard reaching its share evicts its least-recently-used
/// quarter (always safe — misses just recompute) so memory stays
/// bounded no matter how many scenarios a long-lived executor sees.
/// The default is far above any scenario space in this repository (the
/// grid-region bench peaks at 99 × 8 = 792 operational artifacts);
/// [`EvalCache::with_artifact_cap`] overrides it.
pub(crate) const DEFAULT_ARTIFACT_CAP: usize = 1 << 16;

/// Occupancy and cumulative evictions of one cache shard, summed
/// across the five stage cells (see [`EvalCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Artifacts currently stored in this shard.
    pub entries: usize,
    /// Artifacts this shard's LRU policy has evicted since
    /// construction.
    pub evictions: u64,
}

/// How many shards each stage's store splits into. Shard routing
/// mixes the configuration tag, so different configurations spread
/// across shards while one configuration's entries stay together
/// (per-shard LRU then evicts whole-configuration working sets in
/// recency order rather than scattering holes everywhere).
pub const SHARD_COUNT: usize = 8;

/// The (epoch, client) identity a lookup or insert runs under —
/// captured once per evaluation from [`EvalCache::current_stamp`].
/// Entries remember the stamp they were inserted with; comparing it
/// against the reader's stamp is what attributes cross-request and
/// cross-client reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) epoch: u64,
    pub(crate) client: u64,
}

/// Per-call hit/miss tally, threaded through every lookup so a sweep
/// or `run` request reports exactly its own traffic even when other
/// calls share the cache concurrently (the cumulative [`StageCell`]
/// counters cannot be attributed per call).
#[derive(Debug, Default)]
pub(crate) struct PipelineTally {
    pub(crate) physical: TallyPair,
    pub(crate) yields: TallyPair,
    pub(crate) embodied: TallyPair,
    pub(crate) power: TallyPair,
    pub(crate) operational: TallyPair,
}

#[derive(Debug, Default)]
pub(crate) struct TallyPair {
    hits: Counter,
    cross_hits: Counter,
    client_hits: Counter,
    misses: Counter,
}

impl TallyPair {
    fn snapshot(&self) -> StageCounters {
        StageCounters {
            hits: self.hits.get(),
            cross_hits: self.cross_hits.get(),
            client_hits: self.client_hits.get(),
            misses: self.misses.get(),
        }
    }
}

impl PipelineTally {
    /// The counters accumulated so far, as plain stats.
    pub(crate) fn snapshot(&self) -> PipelineStats {
        PipelineStats {
            physical: self.physical.snapshot(),
            yields: self.yields.snapshot(),
            embodied: self.embodied.snapshot(),
            power: self.power.snapshot(),
            operational: self.operational.snapshot(),
        }
    }
}

/// One stored artifact plus its bookkeeping: the design it belongs to
/// (checked on every hit), the (epoch, client) it was inserted under,
/// and its last-used stamp from the store-wide access clock (atomic,
/// so warm lookups bump recency under the shard's *read* lock).
#[derive(Debug)]
struct Entry<T> {
    key: Arc<DesignKey>,
    value: T,
    epoch: u64,
    client: u64,
    last_used: AtomicU64,
}

/// One shard of a stage's store: artifacts keyed (configuration tag →
/// design fingerprint) plus an entry count maintained under the write
/// lock. The two-level map groups one configuration's entries
/// together; a warm lookup hashes two integers and compares the
/// design bytes — no per-lookup allocation.
#[derive(Debug)]
struct Shard<T> {
    entries: HashMap<u64, ByFingerprint<T>>,
    count: usize,
    /// Entries this shard has evicted since construction (maintained
    /// under the write lock; feeds [`EvalCache::shard_stats`]).
    evictions: u64,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for Shard<T> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            count: 0,
            evictions: 0,
        }
    }
}

/// Routes a configuration tag to its shard: a multiply-mix so
/// sequential or low-entropy tags still spread, taking the top bits
/// (the best-mixed ones) as the index.
fn shard_of(tag: u64) -> usize {
    debug_assert!(SHARD_COUNT.is_power_of_two());
    #[allow(clippy::cast_possible_truncation)]
    {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_COUNT.trailing_zeros())) as usize
    }
}

/// One shard's share of the per-stage artifact cap (at least 1, so a
/// pathologically tiny cap still caches the hot artifact).
fn per_shard_cap(cap: usize) -> usize {
    cap.div_ceil(SHARD_COUNT).max(1)
}

/// Evicts the least-recently-used quarter (at least one entry) of a
/// full shard, returning how many entries were dropped. Access-clock
/// stamps are unique, so the quantile threshold evicts an exact count.
fn evict_lru<T>(shard: &mut Shard<T>) -> usize {
    let mut stamps: Vec<u64> = shard
        .entries
        .values()
        .flat_map(|m| m.values().map(|e| e.last_used.load(Ordering::Relaxed)))
        .collect();
    if stamps.is_empty() {
        return 0;
    }
    stamps.sort_unstable();
    let drop_n = (stamps.len() / 4).max(1);
    let threshold = stamps[drop_n - 1];
    let mut evicted = 0usize;
    shard.entries.retain(|_, m| {
        m.retain(|_, e| {
            let keep = e.last_used.load(Ordering::Relaxed) > threshold;
            evicted += usize::from(!keep);
            keep
        });
        !m.is_empty()
    });
    shard.count -= evicted;
    shard.evictions += evicted as u64;
    evicted
}

/// One stage's sharded store plus its cumulative counters. The
/// counters are [`tdc_obs::metrics::Counter`] atomics *outside* the
/// shards, so they are exact under concurrent readers and they survive
/// eviction and `clear` — the old single-map store reset its entry
/// accounting wholesale on overflow, which made a long stream's stats
/// lie mid-flight. (`stages_kv` in [`crate::service::summary`] is the
/// compatibility formatter that keeps the stderr `key=value` surface
/// byte-identical on top of these.)
#[derive(Debug)]
pub(crate) struct StageCell<T> {
    shards: [RwLock<Shard<T>>; SHARD_COUNT],
    /// The store-wide access clock LRU stamps come from.
    clock: AtomicU64,
    hits: Counter,
    cross_hits: Counter,
    client_hits: Counter,
    misses: Counter,
    evictions: Counter,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for StageCell<T> {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            clock: AtomicU64::new(0),
            hits: Counter::new(),
            cross_hits: Counter::new(),
            client_hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }
}

impl<T: Clone> StageCell<T> {
    /// Looks (`tag`, `key`) up under the shard's *read* lock, counting
    /// the outcome both cumulatively and on the caller's tally. An
    /// entry whose fingerprint matches but whose design bytes differ is
    /// a miss. A hit on an artifact inserted before `stamp.epoch`
    /// additionally counts as a cross-epoch hit; one inserted by a
    /// different client as a cross-client hit. Hits bump the entry's
    /// LRU stamp.
    pub(crate) fn lookup(
        &self,
        tag: u64,
        key: &DesignKey,
        stamp: Stamp,
        tally: &TallyPair,
    ) -> Option<T> {
        let shard = self.shards[shard_of(tag)]
            .read()
            .expect("cache shard poisoned");
        match shard
            .entries
            .get(&tag)
            .and_then(|m| m.get(&key.fingerprint))
            .filter(|e| *e.key == *key)
        {
            Some(entry) => {
                entry.last_used.store(
                    self.clock.fetch_add(1, Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                self.hits.inc();
                tally.hits.inc();
                if entry.epoch < stamp.epoch {
                    self.cross_hits.inc();
                    tally.cross_hits.inc();
                }
                if entry.client != stamp.client {
                    self.client_hits.inc();
                    tally.client_hits.inc();
                }
                Some(entry.value.clone())
            }
            None => {
                self.misses.inc();
                tally.misses.inc();
                None
            }
        }
    }

    /// Inserts under the shard's write lock, evicting the shard's LRU
    /// quarter first when it is at its share of `cap`. An entry with
    /// the same fingerprint is replaced, even if it belongs to another
    /// design.
    pub(crate) fn insert(
        &self,
        tag: u64,
        key: &Arc<DesignKey>,
        stamp: Stamp,
        value: T,
        cap: usize,
    ) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[shard_of(tag)]
            .write()
            .expect("cache shard poisoned");
        let exists = shard
            .entries
            .get(&tag)
            .is_some_and(|m| m.contains_key(&key.fingerprint));
        if !exists && shard.count >= per_shard_cap(cap) {
            let evicted = evict_lru(&mut shard);
            self.evictions.add(evicted as u64);
        }
        let entry = Entry {
            key: Arc::clone(key),
            value,
            epoch: stamp.epoch,
            client: stamp.client,
            last_used: AtomicU64::new(now),
        };
        if shard
            .entries
            .entry(tag)
            .or_default()
            .insert(key.fingerprint, entry)
            .is_none()
        {
            shard.count += 1;
        }
    }

    fn counters(&self) -> StageCounters {
        StageCounters {
            hits: self.hits.get(),
            cross_hits: self.cross_hits.get(),
            client_hits: self.client_hits.get(),
            misses: self.misses.get(),
        }
    }

    fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").count)
            .sum()
    }

    /// Folds this cell's per-shard occupancy and eviction counts into
    /// `out` (indexed by shard).
    fn fold_shard_stats(&self, out: &mut [ShardStats; SHARD_COUNT]) {
        for (shard, slot) in self.shards.iter().zip(out.iter_mut()) {
            let shard = shard.read().expect("cache shard poisoned");
            slot.entries += shard.count;
            slot.evictions += shard.evictions;
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.write().expect("cache shard poisoned");
            shard.entries.clear();
            shard.count = 0;
        }
    }
}

/// The per-stage namespace tags of one (model, workload) configuration:
/// a hash of each stage's input-slice fingerprint, prefixed onto every
/// key so entries from one configuration can never answer another's
/// lookups — even when concurrent `execute` calls race on a shared
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageTags {
    pub(crate) physical: u64,
    pub(crate) yields: u64,
    pub(crate) embodied: u64,
    pub(crate) power: u64,
    pub(crate) operational: u64,
}

fn hash_str(s: &str) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut hasher);
    hasher.finish()
}

/// A thread-safe, sharded, per-stage artifact store for pipeline
/// evaluations.
///
/// The cache is shared by all workers of a
/// [`SweepExecutor`](crate::sweep::SweepExecutor) — and, through a
/// [`ScenarioSession`](crate::service::ScenarioSession), by every
/// client of a multi-connection server — and survives across
/// `execute` calls *and configuration changes*: repeated sweeps over
/// overlapping design spaces skip already-computed points entirely,
/// and sweeps that vary only downstream axes (a new use-phase grid, a
/// new lifetime) skip every upstream stage.
#[derive(Debug)]
pub struct EvalCache {
    pub(crate) physical: StageCell<Arc<PhysicalProfile>>,
    pub(crate) yields: StageCell<Arc<YieldProfile>>,
    pub(crate) embodied: StageCell<EmbodiedOutcome>,
    pub(crate) power: StageCell<Arc<PowerProfile>>,
    pub(crate) operational: StageCell<Arc<OperationalReport>>,
    /// The current request epoch. Artifacts remember the epoch they
    /// were inserted in; a hit on an artifact from an earlier epoch is
    /// *cross-request* reuse (see [`StageCounters::cross_hits`]).
    epoch: AtomicU64,
    /// The client of the most recent [`begin_request`]
    /// (see [`StageCounters::client_hits`]). Like the epoch, this is
    /// ambient per-request state: concurrent requests from different
    /// clients can skew attribution slightly, never correctness.
    ///
    /// [`begin_request`]: EvalCache::begin_request
    client: AtomicU64,
    /// Per-stage artifact cap (see [`DEFAULT_ARTIFACT_CAP`]).
    artifact_cap: usize,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::with_artifact_cap(DEFAULT_ARTIFACT_CAP)
    }
}

impl EvalCache {
    /// Creates an empty cache with the default per-stage artifact cap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose per-stage stores retain at most
    /// about `cap` artifacts each (a cap of 0 is treated as 1). The
    /// cap is divided across the 8 lock shards; a shard reaching
    /// its share evicts its least-recently-used quarter — recomputing
    /// is always safe — so a tiny cap trades recomputation for memory
    /// without ever changing results.
    #[must_use]
    pub fn with_artifact_cap(cap: usize) -> Self {
        Self {
            physical: StageCell::default(),
            yields: StageCell::default(),
            embodied: StageCell::default(),
            power: StageCell::default(),
            operational: StageCell::default(),
            epoch: AtomicU64::new(0),
            client: AtomicU64::new(0),
            artifact_cap: cap.max(1),
        }
    }

    /// The per-stage artifact cap this cache was built with.
    #[must_use]
    pub fn artifact_cap(&self) -> usize {
        self.artifact_cap
    }

    /// Starts a new request epoch and returns it. Long-lived owners
    /// (a [`ScenarioSession`](crate::service::ScenarioSession), the
    /// `tdc sweep --repeat` loop) call this at every request boundary
    /// so hit counters can attribute reuse to *earlier requests*
    /// rather than to sharing within one evaluation. Evaluations never
    /// advance the epoch themselves.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Starts a new request epoch *on behalf of `client`* and returns
    /// the epoch. Multi-client owners (the `tdc serve --listen`
    /// frontend) pass each connection's id so hits on another
    /// connection's artifacts are attributed as cross-client reuse;
    /// single-client owners are simply always client 0 (equivalent to
    /// [`advance_epoch`](Self::advance_epoch)).
    pub fn begin_request(&self, client: u64) -> u64 {
        self.client.store(client, Ordering::Relaxed);
        self.advance_epoch()
    }

    /// The ambient (epoch, client) stamp evaluations run under,
    /// captured once per evaluation at the same point the epoch used
    /// to be read.
    pub(crate) fn current_stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch.load(Ordering::Relaxed),
            client: self.client.load(Ordering::Relaxed),
        }
    }

    /// Computes the per-stage namespace tags for a (model, workload)
    /// configuration. Each tag hashes the union of the context slices
    /// that stage and its upstream stages read — nothing more, which is
    /// exactly what lets downstream-only changes keep upstream tags
    /// (and therefore artifacts) stable. `workload` is `None` for
    /// embodied-only evaluations — the operational stage is never
    /// consulted there, and the embodied chain's tags do not depend on
    /// the workload, so embodied-only and lifecycle requests share
    /// every upstream artifact.
    pub(crate) fn stage_tags(model: &CarbonModel, workload: Option<&Workload>) -> StageTags {
        let ctx = model.context();
        let geometry = ctx.fingerprint_geometry();
        let yields = format!("{geometry}\u{1f}{}", ctx.fingerprint_yield());
        let embodied = format!("{yields}\u{1f}{}", ctx.fingerprint_fab());
        let operational = match workload {
            Some(workload) => format!(
                "{geometry}\u{1f}{}\u{1f}{}\u{1f}{workload:?}",
                ctx.fingerprint_use(),
                model.power_model().fingerprint(),
            ),
            // Embodied-only: a sentinel no real workload tag can equal
            // (real tags always embed the use-grid fingerprint).
            None => "\u{1f}embodied-only".to_owned(),
        };
        StageTags {
            physical: hash_str(&format!("phys\u{1f}{geometry}")),
            yields: hash_str(&format!("yield\u{1f}{yields}")),
            embodied: hash_str(&format!("emb\u{1f}{embodied}")),
            power: hash_str(&format!("power\u{1f}{geometry}")),
            operational: hash_str(&format!("op\u{1f}{operational}")),
        }
    }

    /// Current counters and size.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stages: PipelineStats {
                physical: self.physical.counters(),
                yields: self.yields.counters(),
                embodied: self.embodied.counters(),
                power: self.power.counters(),
                operational: self.operational.counters(),
            },
            entries: self.physical.len()
                + self.yields.len()
                + self.embodied.len()
                + self.power.len()
                + self.operational.len(),
            evictions: self.physical.evictions()
                + self.yields.evictions()
                + self.embodied.evictions()
                + self.power.evictions()
                + self.operational.evictions(),
        }
    }

    /// Per-shard occupancy and eviction counts, summed across the five
    /// stage cells (shard `i` of every stage shares index `i`).
    /// Occupancy reflects the current contents; evictions are
    /// cumulative since construction (maintained inside each shard, so
    /// they attribute LRU pressure to the shard that felt it — the
    /// cell-level [`CacheStats::evictions`] aggregate cannot).
    #[must_use]
    pub fn shard_stats(&self) -> [ShardStats; SHARD_COUNT] {
        let mut out = [ShardStats::default(); SHARD_COUNT];
        self.physical.fold_shard_stats(&mut out);
        self.yields.fold_shard_stats(&mut out);
        self.embodied.fold_shard_stats(&mut out);
        self.power.fold_shard_stats(&mut out);
        self.operational.fold_shard_stats(&mut out);
        out
    }

    /// Publishes this cache's cumulative counters and per-shard
    /// occupancy/evictions into the global obs gauges
    /// (`cache.*` in `tdc_obs::metrics::CATALOG`). Called by the
    /// metric sinks (profile writer, serve metrics frame, exposition
    /// scrape) right before they snapshot, so the published levels
    /// always describe the cache actually serving traffic.
    pub fn publish_obs(&self) {
        use tdc_obs::metrics as m;
        const {
            assert!(
                SHARD_COUNT == m::CACHE_SHARDS,
                "obs per-shard gauge arrays must match the cache shard count"
            );
        }
        let stats = self.stats();
        let to_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        m::CACHE_HITS.set(to_i64(stats.stages.hits()));
        m::CACHE_CROSS_HITS.set(to_i64(stats.stages.cross_hits()));
        m::CACHE_CLIENT_HITS.set(to_i64(stats.stages.client_hits()));
        m::CACHE_MISSES.set(to_i64(stats.stages.misses()));
        m::CACHE_EVICTIONS.set(to_i64(stats.evictions));
        m::CACHE_ENTRIES.set(to_i64(stats.entries as u64));
        for (i, shard) in self.shard_stats().iter().enumerate() {
            m::CACHE_SHARD_ENTRIES[i].set(to_i64(shard.entries as u64));
            m::CACHE_SHARD_EVICTIONS[i].set(to_i64(shard.evictions));
        }
    }

    /// Drops every stored artifact in every stage (counters are kept).
    pub fn clear(&self) {
        self.physical.clear();
        self.yields.clear();
        self.embodied.clear();
        self.power.clear();
        self.operational.clear();
    }

    pub(crate) fn physical_or_eval(&self, point: &PointLookup<'_>) -> Arc<PhysicalProfile> {
        if let Some(p) = self.physical.lookup(
            point.tags.physical,
            point.design_key,
            point.stamp,
            &point.tally.physical,
        ) {
            return p;
        }
        let p = Arc::new(pipeline::physical_profile(
            point.model.context(),
            point.design,
        ));
        self.physical.insert(
            point.tags.physical,
            point.design_key,
            point.stamp,
            Arc::clone(&p),
            self.artifact_cap,
        );
        p
    }

    pub(crate) fn yield_or_eval(
        &self,
        point: &PointLookup<'_>,
        phys: &PhysicalProfile,
    ) -> Result<Arc<YieldProfile>, ModelError> {
        if let Some(y) = self.yields.lookup(
            point.tags.yields,
            point.design_key,
            point.stamp,
            &point.tally.yields,
        ) {
            return Ok(y);
        }
        let y = Arc::new(pipeline::yield_profile(
            point.model.context(),
            point.design,
            phys,
        )?);
        self.yields.insert(
            point.tags.yields,
            point.design_key,
            point.stamp,
            Arc::clone(&y),
            self.artifact_cap,
        );
        Ok(y)
    }

    pub(crate) fn power_or_eval(
        &self,
        point: &PointLookup<'_>,
        phys: &PhysicalProfile,
    ) -> Result<Arc<PowerProfile>, ModelError> {
        if let Some(p) = self.power.lookup(
            point.tags.power,
            point.design_key,
            point.stamp,
            &point.tally.power,
        ) {
            return Ok(p);
        }
        let p = Arc::new(pipeline::power_profile(
            point.model.context(),
            point.design,
            phys,
        )?);
        self.power.insert(
            point.tags.power,
            point.design_key,
            point.stamp,
            Arc::clone(&p),
            self.artifact_cap,
        );
        Ok(p)
    }

    /// The embodied artifact head (physical → yield → embodied):
    /// answered from the store, or computed — taking the physical
    /// profile from `phys` — and stored. A design whose dies outgrow
    /// the wafer is a stored [`EmbodiedOutcome::Oversized`], not an
    /// error. The bool is the hit flag.
    pub(crate) fn embodied_head(
        &self,
        point: &PointLookup<'_>,
        phys: impl FnOnce() -> Arc<PhysicalProfile>,
    ) -> Result<(EmbodiedOutcome, bool), ModelError> {
        let (tag, key, stamp) = (point.tags.embodied, point.design_key, point.stamp);
        if let Some(o) = self.embodied.lookup(tag, key, stamp, &point.tally.embodied) {
            return Ok((o, true));
        }
        let phys = phys();
        let yld = self.yield_or_eval(point, &phys)?;
        let outcome =
            match pipeline::embodied_breakdown(point.model.context(), point.design, &phys, &yld) {
                Ok(b) => EmbodiedOutcome::Report(Arc::new(b)),
                Err(ModelError::DieExceedsWafer { .. }) => EmbodiedOutcome::Oversized,
                Err(e) => return Err(e),
            };
        self.embodied
            .insert(tag, key, stamp, outcome.clone(), self.artifact_cap);
        Ok((outcome, false))
    }

    /// The operational artifact head (physical → power → operational):
    /// answered from the store, or computed from the (physical, power)
    /// profiles `inputs` supplies and stored. The bool is the hit flag.
    pub(crate) fn operational_head(
        &self,
        point: &PointLookup<'_>,
        workload: &Workload,
        inputs: impl FnOnce() -> Result<(Arc<PhysicalProfile>, Arc<PowerProfile>), ModelError>,
    ) -> Result<(Arc<OperationalReport>, bool), ModelError> {
        let (tag, key, stamp) = (point.tags.operational, point.design_key, point.stamp);
        if let Some(r) = self
            .operational
            .lookup(tag, key, stamp, &point.tally.operational)
        {
            return Ok((r, true));
        }
        let (phys, power) = inputs()?;
        let model = point.model;
        let r = Arc::new(pipeline::operational_report(
            model.context(),
            point.design,
            &phys,
            &power,
            workload,
            model.power_model(),
        )?);
        self.operational
            .insert(tag, key, stamp, Arc::clone(&r), self.artifact_cap);
        Ok((r, false))
    }

    /// Evaluates only the embodied chain of `design` (whose key is
    /// `design_key`) under `model` (the `tdc run` without-a-workload
    /// path), answering every stage from the store when possible.
    /// Returns `Ok(None)` for designs whose dies outgrow the wafer.
    pub(crate) fn embodied_or_eval(
        &self,
        tags: &StageTags,
        model: &CarbonModel,
        design: &ChipDesign,
        design_key: &Arc<DesignKey>,
        tally: &PipelineTally,
    ) -> Result<Option<Arc<crate::embodied::EmbodiedBreakdown>>, ModelError> {
        let point = PointLookup {
            tags,
            model,
            design,
            design_key,
            stamp: self.current_stamp(),
            tally,
        };
        match self
            .embodied_head(&point, || self.physical_or_eval(&point))?
            .0
        {
            EmbodiedOutcome::Report(r) => Ok(Some(r)),
            EmbodiedOutcome::Oversized => Ok(None),
        }
    }

    /// Evaluates `design` (whose key is `design_key`) under (`model`,
    /// `workload`) through the staged pipeline, answering every stage
    /// from the store when possible — the `tdc run` path. `tags` is
    /// the value [`stage_tags`](EvalCache::stage_tags) returned for
    /// this configuration. Returns `Ok(None)` for designs whose dies
    /// outgrow the wafer (remembered as such), and the report plus a
    /// did-every-stage-hit flag otherwise.
    pub(crate) fn lifecycle_or_eval(
        &self,
        tags: &StageTags,
        model: &CarbonModel,
        design: &ChipDesign,
        design_key: &Arc<DesignKey>,
        workload: &Workload,
        tally: &PipelineTally,
    ) -> Result<(Option<LifecycleReport>, bool), ModelError> {
        let point = PointLookup {
            tags,
            model,
            design,
            design_key,
            stamp: self.current_stamp(),
            tally,
        };
        // Fetched at most once per point, shared by both heads.
        let mut phys_local: Option<Arc<PhysicalProfile>> = None;
        let mut phys =
            || Arc::clone(phys_local.get_or_insert_with(|| self.physical_or_eval(&point)));
        let (embodied, emb_hit) = self.embodied_head(&point, &mut phys)?;
        let EmbodiedOutcome::Report(embodied) = embodied else {
            return Ok((None, emb_hit));
        };
        let (operational, op_hit) = self.operational_head(&point, workload, || {
            let phys = phys();
            let power = self.power_or_eval(&point, &phys)?;
            Ok((phys, power))
        })?;
        Ok((
            Some(LifecycleReport {
                embodied: (*embodied).clone(),
                operational: (*operational).clone(),
            }),
            emb_hit && op_hit,
        ))
    }
}

/// Everything a single point lookup needs, bundled so the per-stage
/// helpers stay readable.
pub(crate) struct PointLookup<'a> {
    pub(crate) tags: &'a StageTags,
    pub(crate) model: &'a CarbonModel,
    pub(crate) design: &'a ChipDesign,
    pub(crate) design_key: &'a Arc<DesignKey>,
    pub(crate) stamp: Stamp,
    pub(crate) tally: &'a PipelineTally,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use crate::design::DieSpec;
    use tdc_technode::{GridRegion, ProcessNode};
    use tdc_units::{Throughput, TimeSpan};

    fn model() -> CarbonModel {
        CarbonModel::new(ModelContext::default())
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(50.0),
            TimeSpan::from_hours(1_000.0),
        )
    }

    fn sc(hits: u64, misses: u64) -> StageCounters {
        StageCounters {
            hits,
            cross_hits: 0,
            client_hits: 0,
            misses,
        }
    }

    fn mono(gates: f64) -> ChipDesign {
        ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(gates)
                .build()
                .unwrap(),
        )
    }

    fn key(design: &ChipDesign) -> Arc<DesignKey> {
        Arc::new(DesignKey::new(design))
    }

    /// A distinct key per `i`, for exercising a bare [`StageCell`].
    fn k(i: u64) -> Arc<DesignKey> {
        #[allow(clippy::cast_precision_loss)]
        key(&mono(1.0e9 + i as f64))
    }

    /// The zero stamp every single-request test runs under.
    const S0: Stamp = Stamp {
        epoch: 0,
        client: 0,
    };

    #[test]
    fn second_lookup_hits_every_stage() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let tags = EvalCache::stage_tags(&m, Some(&w));
        let (first, hit1) = cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();
        let (second, hit2) = cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        let stats = cache.stats();
        // Cold pass: one miss per stage. Warm pass: only the two
        // artifact heads (embodied, operational) are consulted — the
        // intermediate stages are not even looked up.
        assert_eq!(stats.stages.embodied, sc(1, 1));
        assert_eq!(stats.stages.operational, sc(1, 1));
        assert_eq!(stats.stages.physical, sc(0, 1));
        assert_eq!(stats.stages.yields, sc(0, 1));
        assert_eq!(stats.stages.power, sc(0, 1));
        assert_eq!(stats.entries, 5);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn operational_axis_change_keeps_embodied_artifacts() {
        // The whole point of the per-stage store: a use-grid change
        // reuses geometry, yield, embodied, and power artifacts, and
        // recomputes only the operational stage.
        let cache = EvalCache::new();
        let d = mono(5.0e9);
        let w = workload();
        let base = model();
        let tags = EvalCache::stage_tags(&base, Some(&w));
        cache
            .lifecycle_or_eval(&tags, &base, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();

        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let moved_tags = EvalCache::stage_tags(&moved, Some(&w));
        assert_eq!(tags.embodied, moved_tags.embodied);
        assert_ne!(tags.operational, moved_tags.operational);
        let (report, hit) = cache
            .lifecycle_or_eval(
                &moved_tags,
                &moved,
                &d,
                &key(&d),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        assert!(!hit, "the operational stage must recompute");
        let stats = cache.stats();
        assert_eq!(
            stats.stages.embodied,
            sc(1, 1),
            "embodied artifact answered from the store"
        );
        assert_eq!(
            stats.stages.physical,
            sc(1, 1),
            "geometry reused for the new operational stage"
        );
        assert_eq!(stats.stages.power, sc(1, 1));
        assert_eq!(stats.stages.operational, sc(0, 2));
        // And the re-priced report matches an uncached evaluation.
        let fresh = moved.lifecycle(&d, &w).unwrap();
        assert_eq!(report.unwrap(), fresh);
    }

    #[test]
    fn fab_axis_change_keeps_operational_artifacts() {
        let cache = EvalCache::new();
        let d = mono(5.0e9);
        let w = workload();
        let base = model();
        let tags = EvalCache::stage_tags(&base, Some(&w));
        cache
            .lifecycle_or_eval(&tags, &base, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();

        let moved = CarbonModel::new(
            ModelContext::builder()
                .fab_region(GridRegion::Renewable)
                .build(),
        );
        let moved_tags = EvalCache::stage_tags(&moved, Some(&w));
        assert_eq!(tags.operational, moved_tags.operational);
        assert_ne!(tags.embodied, moved_tags.embodied);
        let (report, _) = cache
            .lifecycle_or_eval(
                &moved_tags,
                &moved,
                &d,
                &key(&d),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        let stats = cache.stats();
        assert_eq!(
            stats.stages.operational,
            sc(1, 1),
            "operational artifact answered from the store"
        );
        assert_eq!(stats.stages.embodied, sc(0, 2));
        assert_eq!(report.unwrap(), moved.lifecycle(&d, &w).unwrap());
    }

    #[test]
    fn distinct_designs_get_distinct_keys() {
        let (a, b) = (
            DesignKey::new(&mono(5.0e9)),
            DesignKey::new(&mono(5.0e9 + 1.0)),
        );
        assert_ne!(a, b);
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let again = DesignKey::new(&mono(5.0e9));
        assert_eq!(a, again);
        assert_eq!(a.fingerprint(), again.fingerprint());
    }

    #[test]
    fn hostile_die_names_cannot_collide() {
        // A name embedding the field/die separators must not make two
        // structurally different designs encode identically — names
        // are length-prefixed.
        let named = |name: &str| {
            ChipDesign::monolithic_2d(
                DieSpec::builder(name, ProcessNode::N7)
                    .gate_count(1.0e9)
                    .build()
                    .unwrap(),
            )
        };
        let plain = named("d0");
        let hostile = named("d0N7;~,~,~,~,~,~|");
        assert_ne!(DesignKey::new(&plain), DesignKey::new(&hostile));
    }

    #[test]
    fn fingerprint_collisions_miss_instead_of_answering_another_design() {
        // Two different designs forced onto one fingerprint: the second
        // lookup must miss on every stage and evaluate its own design.
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let tags = EvalCache::stage_tags(&m, Some(&w));
        let (a, b) = (mono(5.0e9), mono(9.0e9));
        let ka = Arc::new(DesignKey::with_fingerprint(&a, 42));
        let kb = Arc::new(DesignKey::with_fingerprint(&b, 42));
        assert_eq!(ka.fingerprint(), kb.fingerprint());
        assert_ne!(ka, kb);
        let (ra, _) = cache
            .lifecycle_or_eval(&tags, &m, &a, &ka, &w, &PipelineTally::default())
            .unwrap();
        let tally = PipelineTally::default();
        let (rb, hit) = cache
            .lifecycle_or_eval(&tags, &m, &b, &kb, &w, &tally)
            .unwrap();
        assert!(!hit, "a colliding fingerprint must not hit");
        assert_eq!(tally.snapshot().hits(), 0);
        assert_eq!(rb.unwrap(), m.lifecycle(&b, &w).unwrap());
        assert_ne!(ra, m.lifecycle(&b, &w).ok());
        // The colliding insert replaced the entry: the store holds one
        // artifact per stage and still answers `b` exactly.
        let cell: StageCell<u8> = StageCell::default();
        let t = TallyPair::default();
        cell.insert(1, &ka, S0, 1, DEFAULT_ARTIFACT_CAP);
        assert_eq!(cell.lookup(1, &kb, S0, &t), None);
        cell.insert(1, &kb, S0, 2, DEFAULT_ARTIFACT_CAP);
        assert_eq!(cell.len(), 1);
        assert_eq!(cell.lookup(1, &ka, S0, &t), None);
        assert_eq!(cell.lookup(1, &kb, S0, &t), Some(2));
    }

    #[test]
    fn oversized_outcome_is_remembered() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = ChipDesign::monolithic_2d(
            DieSpec::builder("huge", ProcessNode::N28)
                .gate_count(60.0e9) // far beyond a 300 mm wafer at 28 nm
                .build()
                .unwrap(),
        );
        let tags = EvalCache::stage_tags(&m, Some(&w));
        let (r1, hit1) = cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();
        let (r2, hit2) = cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();
        assert!(r1.is_none() && r2.is_none());
        assert!(!hit1);
        assert!(hit2);
        // The upstream physical/yield artifacts stay cached — a wafer
        // change could reuse them even though this wafer can't build
        // the design.
        assert_eq!(cache.stats().stages.embodied.misses, 1);
    }

    #[test]
    fn workload_change_namespaces_operational_only() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let tags = EvalCache::stage_tags(&m, Some(&w));
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
            .unwrap();
        let longer = Workload::fixed(
            "app",
            Throughput::from_tops(50.0),
            TimeSpan::from_hours(2_000.0),
        );
        let longer_tags = EvalCache::stage_tags(&m, Some(&longer));
        assert_eq!(tags.embodied, longer_tags.embodied);
        assert_ne!(tags.operational, longer_tags.operational);
        let (_, hit) = cache
            .lifecycle_or_eval(
                &longer_tags,
                &m,
                &d,
                &key(&d),
                &longer,
                &PipelineTally::default(),
            )
            .unwrap();
        assert!(!hit, "a different workload must re-price operations");
        assert_eq!(cache.stats().stages.embodied.hits, 1);
    }

    #[test]
    fn clear_drops_entries() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let tags = EvalCache::stage_tags(&m, Some(&w));
        cache
            .lifecycle_or_eval(
                &tags,
                &m,
                &mono(5.0e9),
                &key(&mono(5.0e9)),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 5);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // One tag → one shard. With a cap of 32 the shard's share is
        // 32 / SHARD_COUNT = 4: filling it and inserting a fifth entry
        // must evict exactly the least-recently-used quarter (one
        // entry) — and a lookup decides recency, so touching the
        // oldest entry redirects eviction to the next-oldest.
        let cell: StageCell<u8> = StageCell::default();
        const CAP: usize = 4 * SHARD_COUNT;
        let tally = TallyPair::default();
        for i in 0..4u8 {
            cell.insert(7, &k(u64::from(i)), S0, i, CAP);
        }
        assert_eq!(cell.len(), 4);
        // Touch k0: k1 becomes the LRU entry.
        assert_eq!(cell.lookup(7, &k(0), S0, &tally), Some(0));
        cell.insert(7, &k(4), S0, 4, CAP);
        assert_eq!(cell.len(), 4, "one in, one out");
        assert_eq!(cell.lookup(7, &k(1), S0, &tally), None, "LRU entry evicted");
        assert_eq!(
            cell.lookup(7, &k(0), S0, &tally),
            Some(0),
            "touched entry kept"
        );
        assert_eq!(
            cell.lookup(7, &k(4), S0, &tally),
            Some(4),
            "new entry stored"
        );
        assert_eq!(cell.evictions(), 1);
    }

    #[test]
    fn counters_survive_eviction() {
        // The cap-and-drop regression: overflowing a stage store must
        // never reset its cumulative hit/miss accounting mid-stream.
        let cell: StageCell<u8> = StageCell::default();
        const CAP: usize = SHARD_COUNT; // one entry per shard
        let tally = TallyPair::default();
        cell.insert(3, &k(50), S0, 1, CAP);
        assert_eq!(cell.lookup(3, &k(50), S0, &tally), Some(1));
        assert_eq!(cell.lookup(3, &k(999), S0, &tally), None);
        let before = cell.counters();
        assert_eq!(before, sc(1, 1));
        // Same tag → same shard → every insert beyond the first evicts.
        for i in 0..8u8 {
            cell.insert(3, &k(100 + u64::from(i)), S0, i, CAP);
        }
        assert!(cell.evictions() > 0, "the shard must have overflowed");
        assert_eq!(
            cell.counters(),
            before,
            "inserts and evictions never touch the hit/miss counters"
        );
        // And the store keeps answering: the most recent entry is warm.
        assert_eq!(cell.lookup(3, &k(107), S0, &tally), Some(7));
        assert_eq!(cell.counters().hits, before.hits + 1);
    }

    #[test]
    fn cache_stats_survive_eviction_end_to_end() {
        // The same regression at the EvalCache level: a cap-1 cache
        // evicts on nearly every evaluation, yet stats().stages only
        // ever grows and entries reflects what actually survived.
        let cache = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        let tags = EvalCache::stage_tags(&m, Some(&w));
        cache
            .lifecycle_or_eval(
                &tags,
                &m,
                &mono(5.0e9),
                &key(&mono(5.0e9)),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        let before = cache.stats();
        assert_eq!(before.stages.misses(), 5);
        cache
            .lifecycle_or_eval(
                &tags,
                &m,
                &mono(6.0e9),
                &key(&mono(6.0e9)),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        let after = cache.stats();
        assert_eq!(
            after.stages.misses(),
            10,
            "counters accumulate across evictions"
        );
        assert!(after.stages.hits() >= before.stages.hits());
        assert!(after.entries <= 5 * SHARD_COUNT);
    }

    #[test]
    fn tiny_caps_never_change_results() {
        // Eviction costs recomputation, never correctness: a cap-1
        // cache answers byte-identically to an uncapped one.
        let roomy = EvalCache::new();
        let tight = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        let tags = EvalCache::stage_tags(&m, Some(&w));
        for gates in [5.0e9, 6.0e9, 5.0e9, 7.0e9, 6.0e9] {
            let d = mono(gates);
            let (a, _) = roomy
                .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
                .unwrap();
            let (b, _) = tight
                .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &PipelineTally::default())
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_reads_and_writes_interleave_safely() {
        // A seeded thread-stress loop over the sharded read/write
        // path: every stored value is a pure function of its (tag,
        // key), so any lookup that returns a value for the wrong key —
        // under any interleaving of reads, writes, and LRU evictions —
        // fails the assertion. Counters must account for every lookup.
        let cell: StageCell<u64> = StageCell::default();
        const CAP: usize = 8 * SHARD_COUNT;
        let total_lookups = std::sync::atomic::AtomicU64::new(0);
        let keys: Vec<Arc<DesignKey>> = (0..32).map(k).collect();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (cell, total_lookups, keys) = (&cell, &total_lookups, &keys);
                scope.spawn(move || {
                    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                    let tally = TallyPair::default();
                    let mut lookups = 0u64;
                    for i in 0..2_000u64 {
                        seed = seed
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let tag = seed >> 60; // 16 tags spread over shards
                        let k = (seed >> 32) & 31; // 32 keys per tag
                        let key = keys[k as usize].clone();
                        let stamp = Stamp {
                            epoch: i / 500,
                            client: t,
                        };
                        lookups += 1;
                        match cell.lookup(tag, &key, stamp, &tally) {
                            Some(v) => assert_eq!(v, tag ^ k, "value belongs to another key"),
                            None => cell.insert(tag, &key, stamp, tag ^ k, CAP),
                        }
                    }
                    let snap = tally.snapshot();
                    assert_eq!(snap.hits + snap.misses, lookups);
                    total_lookups.fetch_add(lookups, Ordering::Relaxed);
                });
            }
        });
        let c = cell.counters();
        assert_eq!(
            c.hits + c.misses,
            total_lookups.load(Ordering::Relaxed),
            "cumulative counters account for every lookup"
        );
        assert!(c.hits > 0 && c.misses > 0);
        assert!(
            cell.len() <= per_shard_cap(CAP) * SHARD_COUNT,
            "shards stay within their cap share"
        );
    }

    #[test]
    fn shard_routing_spreads_tags() {
        // Even low-entropy sequential tags must not pile onto one
        // shard (the routing mixes before taking the top bits).
        let mut seen = [false; SHARD_COUNT];
        for tag in 0..64u64 {
            seen[shard_of(tag)] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() >= SHARD_COUNT / 2);
        assert!((0..1024u64).all(|t| shard_of(t) < SHARD_COUNT));
    }

    #[test]
    fn cross_epoch_hits_are_attributed_to_earlier_requests() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let tags = EvalCache::stage_tags(&m, Some(&w));
        // Request 1: cold.
        cache.advance_epoch();
        let t1 = PipelineTally::default();
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &t1)
            .unwrap();
        assert_eq!(t1.snapshot().cross_hits(), 0);
        // Request 2: both artifact heads come from request 1.
        cache.advance_epoch();
        let t2 = PipelineTally::default();
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &t2)
            .unwrap();
        let s2 = t2.snapshot();
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.cross_hits(), 2, "warmth came from the earlier epoch");
        assert!((s2.cross_hit_rate() - 1.0).abs() < 1e-12);
        // A re-evaluation *within* request 2 hits, but not cross-epoch.
        let t3 = PipelineTally::default();
        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let moved_tags = EvalCache::stage_tags(&moved, Some(&w));
        cache
            .lifecycle_or_eval(&moved_tags, &moved, &d, &key(&d), &w, &t3)
            .unwrap();
        let s3 = t3.snapshot();
        // Embodied head: cross hit (inserted in request 1). The
        // physical/power artifacts under the recomputed operational
        // stage are cross hits too.
        assert_eq!(s3.embodied.cross_hits, 1);
        assert_eq!(s3.operational.misses, 1);
        // Cumulative counters carry the same attribution.
        assert_eq!(
            cache.stats().stages.cross_hits(),
            s2.cross_hits() + s3.cross_hits()
        );
    }

    #[test]
    fn cross_client_hits_are_attributed_to_other_clients() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let tags = EvalCache::stage_tags(&m, Some(&w));
        // Client 1 computes everything.
        cache.begin_request(1);
        let t1 = PipelineTally::default();
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &t1)
            .unwrap();
        assert_eq!(t1.snapshot().client_hits(), 0);
        // Client 2 answers both heads from client 1's artifacts.
        cache.begin_request(2);
        let t2 = PipelineTally::default();
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &t2)
            .unwrap();
        let s2 = t2.snapshot();
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.client_hits(), 2, "warmth came from another client");
        assert_eq!(s2.cross_hits(), 2, "and from an earlier request");
        assert!((s2.client_hit_rate() - 1.0).abs() < 1e-12);
        // Client 1 returning sees plain cross-request hits, not
        // cross-client ones — it computed these artifacts itself.
        cache.begin_request(1);
        let t3 = PipelineTally::default();
        cache
            .lifecycle_or_eval(&tags, &m, &d, &key(&d), &w, &t3)
            .unwrap();
        let s3 = t3.snapshot();
        assert_eq!(s3.client_hits(), 0);
        assert_eq!(s3.cross_hits(), 2);
        assert_eq!(cache.stats().stages.client_hits(), 2);
    }

    #[test]
    fn embodied_only_requests_share_upstream_artifacts_with_lifecycle() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        // Embodied-only request warms the embodied chain...
        cache.advance_epoch();
        let only_tags = EvalCache::stage_tags(&m, None);
        let t1 = PipelineTally::default();
        let b = cache
            .embodied_or_eval(&only_tags, &m, &d, &key(&d), &t1)
            .unwrap();
        assert!(b.is_some());
        assert_eq!(t1.snapshot().embodied.misses, 1);
        // ...and a later lifecycle request answers embodied from it.
        cache.advance_epoch();
        let life_tags = EvalCache::stage_tags(&m, Some(&w));
        let t2 = PipelineTally::default();
        let (report, _) = cache
            .lifecycle_or_eval(&life_tags, &m, &d, &key(&d), &w, &t2)
            .unwrap();
        let fresh = m.lifecycle(&d, &w).unwrap();
        assert_eq!(report.unwrap(), fresh);
        let s2 = t2.snapshot();
        assert_eq!(
            s2.embodied,
            StageCounters {
                hits: 1,
                cross_hits: 1,
                client_hits: 0,
                misses: 0
            }
        );
        // The physical artifact under the operational stage is shared
        // too; only power + operational actually ran.
        assert_eq!(s2.physical.cross_hits, 1);
        assert_eq!(s2.operational.misses, 1);
    }

    #[test]
    fn stats_deltas_compose() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let tags = EvalCache::stage_tags(&m, Some(&w));
        let before = cache.stats().stages;
        cache
            .lifecycle_or_eval(
                &tags,
                &m,
                &mono(5.0e9),
                &key(&mono(5.0e9)),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        let mid = cache.stats().stages;
        cache
            .lifecycle_or_eval(
                &tags,
                &m,
                &mono(5.0e9),
                &key(&mono(5.0e9)),
                &w,
                &PipelineTally::default(),
            )
            .unwrap();
        let after = cache.stats().stages;
        let cold = mid.since(&before);
        let warm = after.since(&mid);
        assert_eq!(cold.misses(), 5);
        assert_eq!(cold.hits(), 0);
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.hits(), 2, "both artifact heads answered");
        assert!((warm.warm_hit_rate() - 1.0).abs() < 1e-12);
    }
}
