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
//! recompute costs). The hit/miss ledger (below) lives outside the
//! shards and **survives eviction** (and [`EvalCache::clear`]), so a
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
//!
//! # Counting: one ledger
//!
//! Each stage lookup is counted exactly once, by the call that made
//! it. [`StageCounters::record`] books a miss, or a hit with its
//! cross-request and cross-client attribution, into plain counters the
//! call owns (one set per sweep worker, merged when the workers join).
//! Keyed lookups are counted in the one get-or-compute path of a stage
//! store; answers from the sweep engine's plan columns are counted with
//! the same method, so a column hit and a keyed hit look alike. Before
//! it returns, on success and on error, every call (a sweep fill, a
//! `run` request) folds its counts into the cache's cumulative ledger
//! once. [`EvalCache::stats`] reports that ledger, and every sink
//! renders it: the stderr `key=value` lines and `stats` frames of a
//! session, and — through [`EvalCache::publish_obs`] — the `--profile`
//! document, the metrics frame, and the exposition endpoint. The sinks
//! therefore agree by construction; a snapshot taken while a call is
//! still running sees only the calls that have finished.

use crate::design::ChipDesign;
use crate::error::ModelError;
use crate::model::CarbonModel;
use crate::operational::{OperationalReport, Workload};
use crate::pipeline::{self, PhysicalProfile, PowerProfile, YieldProfile};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

    /// Records `n` lookups with one outcome: misses when `hit` is
    /// `None`, otherwise hits on an artifact written under the stamp
    /// `hit` and read under `now` — cross-request hits when it was
    /// written in an earlier epoch, cross-client hits when another
    /// client wrote it. Every counted lookup, keyed or column, comes
    /// through here.
    pub(crate) fn record(&mut self, n: u64, hit: Option<Stamp>, now: Stamp) {
        let Some(written) = hit else {
            self.misses += n;
            return;
        };
        self.hits += n;
        if written.epoch < now.epoch {
            self.cross_hits += n;
        }
        if written.client != now.client {
            self.client_hits += n;
        }
    }

    /// Lookups of any outcome.
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.misses
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

    /// Element-wise sum of two snapshots (used to merge sweep workers'
    /// counts, and by callers adding up per-call stats).
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
    /// Per-stage hit/miss counters since construction: the ledger
    /// every finished call folded its lookups into. It survives
    /// eviction and [`EvalCache::clear`] — a long-running session's
    /// stats never go backwards mid-stream.
    pub stages: PipelineStats,
    /// Artifacts currently stored, across all stages.
    pub entries: usize,
    /// Artifacts evicted by the per-shard LRU policy since
    /// construction, across all stages (the sum of
    /// [`EvalCache::shard_stats`]).
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

/// One stored artifact plus its bookkeeping: the design it belongs to
/// (checked on every hit), the (epoch, client) it was inserted under,
/// and its last-used stamp from the store-wide access clock (atomic,
/// so warm lookups bump recency under the shard's *read* lock).
#[derive(Debug)]
struct Entry<T> {
    key: Arc<DesignKey>,
    value: T,
    stamp: Stamp,
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

/// Evicts the least-recently-used quarter (at least one entry) of a
/// full shard. Access-clock stamps are unique, so the quantile
/// threshold evicts an exact count.
fn evict_lru<T>(shard: &mut Shard<T>) {
    let mut stamps: Vec<u64> = shard
        .entries
        .values()
        .flat_map(|m| m.values().map(|e| e.last_used.load(Ordering::Relaxed)))
        .collect();
    if stamps.is_empty() {
        return;
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
}

/// One stage's sharded store. It keeps no counters: every lookup is
/// counted by the call that made it, through
/// [`get_or_compute`](Self::get_or_compute), and reaches the
/// [`EvalCache`] ledger when that call finishes.
#[derive(Debug)]
pub(crate) struct StageCell<T> {
    shards: [RwLock<Shard<T>>; SHARD_COUNT],
    /// The store-wide access clock LRU stamps come from.
    clock: AtomicU64,
    /// Each shard's share of the per-stage artifact cap (at least 1,
    /// so a pathologically tiny cap still caches the hot artifact).
    shard_cap: usize,
}

impl<T: Clone> StageCell<T> {
    /// An empty store retaining about `cap` artifacts across its
    /// shards.
    fn with_cap(cap: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            clock: AtomicU64::new(0),
            shard_cap: cap.div_ceil(SHARD_COUNT).max(1),
        }
    }

    /// Looks (`tag`, `key`) up under the shard's *read* lock, answering
    /// the artifact and the stamp it was inserted under. An entry whose
    /// fingerprint matches but whose design bytes differ is a miss.
    /// Hits bump the entry's LRU stamp.
    fn lookup(&self, tag: u64, key: &DesignKey) -> Option<(T, Stamp)> {
        let shard = self.shards[shard_of(tag)]
            .read()
            .expect("cache shard poisoned");
        let entry = shard
            .entries
            .get(&tag)
            .and_then(|m| m.get(&key.fingerprint))
            .filter(|e| *e.key == *key)?;
        entry.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some((entry.value.clone(), entry.stamp))
    }

    /// Inserts under the shard's write lock, evicting the shard's LRU
    /// quarter first when it is at its share of the cap. An entry with
    /// the same fingerprint is replaced, even if it belongs to another
    /// design.
    fn insert(&self, tag: u64, key: &Arc<DesignKey>, stamp: Stamp, value: T) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[shard_of(tag)]
            .write()
            .expect("cache shard poisoned");
        let exists = shard
            .entries
            .get(&tag)
            .is_some_and(|m| m.contains_key(&key.fingerprint));
        if !exists && shard.count >= self.shard_cap {
            evict_lru(&mut shard);
        }
        let entry = Entry {
            key: Arc::clone(key),
            value,
            stamp,
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

    /// The artifact of (`tag`, `key`): answered from the store, or
    /// computed and stored under `now`. Records exactly one lookup on
    /// `counters` — the only place keyed lookups are counted. The bool
    /// is the hit flag; a failed computation stores nothing.
    fn get_or_compute<E>(
        &self,
        tag: u64,
        key: &Arc<DesignKey>,
        now: Stamp,
        counters: &mut StageCounters,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, bool), E> {
        let found = self.lookup(tag, key);
        counters.record(1, found.as_ref().map(|(_, written)| *written), now);
        if let Some((value, _)) = found {
            return Ok((value, true));
        }
        let value = compute()?;
        self.insert(tag, key, now, value.clone());
        Ok((value, false))
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
    physical: StageCell<Arc<PhysicalProfile>>,
    yields: StageCell<Arc<YieldProfile>>,
    embodied: StageCell<EmbodiedOutcome>,
    power: StageCell<Arc<PowerProfile>>,
    operational: StageCell<Arc<OperationalReport>>,
    /// The cumulative hit/miss ledger: every finished call's lookups,
    /// folded in once per call (see [`fold`](Self::fold)).
    ledger: Mutex<PipelineStats>,
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
        let cap = cap.max(1);
        Self {
            physical: StageCell::with_cap(cap),
            yields: StageCell::with_cap(cap),
            embodied: StageCell::with_cap(cap),
            power: StageCell::with_cap(cap),
            operational: StageCell::with_cap(cap),
            ledger: Mutex::new(PipelineStats::default()),
            epoch: AtomicU64::new(0),
            client: AtomicU64::new(0),
            artifact_cap: cap,
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

    /// Adds one finished call's lookups to the ledger. Every call that
    /// looks artifacts up (a sweep fill, a `run` request) folds exactly
    /// once, on success and on error, so the ledger is the sum of the
    /// per-call stats.
    pub(crate) fn fold(&self, call: &PipelineStats) {
        let mut ledger = self.ledger.lock().expect("cache ledger poisoned");
        *ledger = ledger.merged(call);
    }

    /// Current counters and size.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let shards = self.shard_stats();
        CacheStats {
            stages: *self.ledger.lock().expect("cache ledger poisoned"),
            entries: shards.iter().map(|s| s.entries).sum(),
            evictions: shards.iter().map(|s| s.evictions).sum(),
        }
    }

    /// Per-shard occupancy and eviction counts, summed across the five
    /// stage cells (shard `i` of every stage shares index `i`).
    /// Occupancy reflects the current contents; evictions are
    /// cumulative since construction (maintained inside each shard, so
    /// they attribute LRU pressure to the shard that felt it).
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

    /// Publishes this cache's ledger and per-shard occupancy/evictions
    /// into the global obs gauges (`cache.*` in
    /// `tdc_obs::metrics::CATALOG`). Called by the metric sinks
    /// (profile writer, serve metrics frame, exposition scrape) right
    /// before they snapshot, so the published levels always describe
    /// the cache actually serving traffic — and agree with the stderr
    /// stats lines and `stats` frames, which render the same ledger.
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

    /// Drops every stored artifact in every stage (the ledger is kept).
    pub fn clear(&self) {
        self.physical.clear();
        self.yields.clear();
        self.embodied.clear();
        self.power.clear();
        self.operational.clear();
    }

    /// Resolves one point through the staged pipeline — every
    /// artifact from its slot, else from the keyed store, else
    /// computed — the one lookup chain behind sweeps (whose slots are
    /// the engine's plan columns) and `run` requests (whose slots start
    /// empty). Keyed lookups are counted on `keyed`, slot answers on
    /// `col`. `workload` is `None` for an embodied-only evaluation;
    /// the operational head is then never consulted, and neither is it
    /// for a design whose dies outgrow the wafer.
    pub(crate) fn eval_point(
        &self,
        point: &PointLookup<'_>,
        workload: Option<&Workload>,
        slots: PointSlots<'_>,
        keyed: &mut PipelineStats,
        col: &mut PipelineStats,
    ) -> Result<PointArtifacts, ModelError> {
        let PointSlots {
            mut phys,
            mut emb,
            mut power,
            mut op,
        } = slots;
        let (ctx, design, tags) = (point.model.context(), point.design, point.tags);
        // Shared by both heads, resolved (and counted) at most once.
        let mut phys_memo: Option<Arc<PhysicalProfile>> = None;
        let mut physical = || {
            let phys = phys_memo.get_or_insert_with(|| {
                let Ok((p, _)) = phys.resolve(
                    &self.physical,
                    tags.physical,
                    point,
                    &mut keyed.physical,
                    &mut col.physical,
                    || Ok::<_, Infallible>(Arc::new(pipeline::physical_profile(ctx, design))),
                );
                p
            });
            Arc::clone(phys)
        };
        let (embodied, emb_hit) = emb.resolve(
            &self.embodied,
            tags.embodied,
            point,
            &mut keyed.embodied,
            &mut col.embodied,
            || {
                let phys = physical();
                let (yld, _) = self.yields.get_or_compute(
                    tags.yields,
                    point.design_key,
                    point.stamp,
                    &mut keyed.yields,
                    || pipeline::yield_profile(ctx, design, &phys).map(Arc::new),
                )?;
                match pipeline::embodied_breakdown(ctx, design, &phys, &yld) {
                    Ok(b) => Ok(EmbodiedOutcome::Report(Arc::new(b))),
                    Err(ModelError::DieExceedsWafer { .. }) => Ok(EmbodiedOutcome::Oversized),
                    Err(e) => Err(e),
                }
            },
        )?;
        let (Some(workload), EmbodiedOutcome::Report(_)) = (workload, &embodied) else {
            return Ok(PointArtifacts {
                embodied,
                operational: None,
                all_hit: emb_hit,
            });
        };
        let (operational, op_hit) = op.resolve(
            &self.operational,
            tags.operational,
            point,
            &mut keyed.operational,
            &mut col.operational,
            || {
                let phys = physical();
                let (power, _) = power.resolve(
                    &self.power,
                    tags.power,
                    point,
                    &mut keyed.power,
                    &mut col.power,
                    || pipeline::power_profile(ctx, design, &phys).map(Arc::new),
                )?;
                pipeline::operational_report(
                    ctx,
                    design,
                    &phys,
                    &power,
                    workload,
                    point.model.power_model(),
                )
                .map(Arc::new)
            },
        )?;
        Ok(PointArtifacts {
            embodied,
            operational: Some(operational),
            all_hit: emb_hit && op_hit,
        })
    }

    /// Evaluates `design` (whose key is `design_key`) as one `run`
    /// request — the full life cycle under (`model`, `workload`), or
    /// only the embodied chain when `workload` is `None` — answering
    /// every stage from the store when possible. `tags` is the value
    /// [`stage_tags`](EvalCache::stage_tags) returned for this
    /// configuration. Folds the request's lookups into the ledger
    /// before returning, on success and on error, and returns them
    /// alongside the outcome.
    pub(crate) fn run_or_eval(
        &self,
        tags: &StageTags,
        model: &CarbonModel,
        design: &ChipDesign,
        design_key: &Arc<DesignKey>,
        workload: Option<&Workload>,
    ) -> (Result<PointArtifacts, ModelError>, PipelineStats) {
        let point = PointLookup {
            tags,
            model,
            design,
            design_key,
            stamp: self.current_stamp(),
        };
        let (mut phys, mut emb, mut power, mut op) = (None, None, None, None);
        let slots = PointSlots {
            phys: Slot::empty(&mut phys),
            emb: Slot::empty(&mut emb),
            power: Slot::empty(&mut power),
            op: Slot::empty(&mut op),
        };
        let mut stages = PipelineStats::default();
        let result = self.eval_point(
            &point,
            workload,
            slots,
            &mut stages,
            &mut PipelineStats::default(),
        );
        self.fold(&stages);
        (result, stages)
    }
}

/// Everything a single point lookup needs, bundled so the per-stage
/// lookups stay readable.
pub(crate) struct PointLookup<'a> {
    pub(crate) tags: &'a StageTags,
    pub(crate) model: &'a CarbonModel,
    pub(crate) design: &'a ChipDesign,
    pub(crate) design_key: &'a Arc<DesignKey>,
    pub(crate) stamp: Stamp,
}

/// What [`EvalCache::eval_point`] resolved for one point.
#[derive(Debug)]
pub(crate) struct PointArtifacts {
    pub(crate) embodied: EmbodiedOutcome,
    /// `None` for an embodied-only evaluation or an oversized design.
    pub(crate) operational: Option<Arc<OperationalReport>>,
    /// Whether every consulted stage was answered without running.
    pub(crate) all_hit: bool,
}

/// One point's slot in each column-backed stage (see [`Slot`]).
pub(crate) struct PointSlots<'a> {
    pub(crate) phys: Slot<'a, Arc<PhysicalProfile>>,
    pub(crate) emb: Slot<'a, EmbodiedOutcome>,
    pub(crate) power: Slot<'a, Arc<PowerProfile>>,
    pub(crate) op: Slot<'a, Arc<OperationalReport>>,
}

/// One point's slot in a plan-aligned stage column of the sweep
/// engine, in front of the keyed store: a resolved slot answers
/// without touching the store. `written` is the stamp the column was
/// last written under, which attributes a slot answer exactly like a
/// keyed hit.
pub(crate) struct Slot<'a, T> {
    pub(crate) value: &'a mut Option<T>,
    pub(crate) written: Stamp,
}

impl<'a, T: Clone> Slot<'a, T> {
    /// A slot with nothing resolved yet, outside any column.
    pub(crate) fn empty(value: &'a mut Option<T>) -> Self {
        Self {
            value,
            written: Stamp::default(),
        }
    }

    /// This point's artifact: from the slot (one hit on `col`), else
    /// from `cell` via [`StageCell::get_or_compute`] (one lookup on
    /// `keyed`), written back into the slot. The bool is the hit flag.
    fn resolve<E>(
        &mut self,
        cell: &StageCell<T>,
        tag: u64,
        point: &PointLookup<'_>,
        keyed: &mut StageCounters,
        col: &mut StageCounters,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, bool), E> {
        if let Some(value) = self.value.as_ref() {
            col.record(1, Some(self.written), point.stamp);
            return Ok((value.clone(), true));
        }
        let (value, hit) =
            cell.get_or_compute(tag, point.design_key, point.stamp, keyed, compute)?;
        *self.value = Some(value.clone());
        Ok((value, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use crate::design::DieSpec;
    use crate::model::LifecycleReport;
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

    /// A life-cycle `run` of `d` under (`m`, `w`): the report (`None`
    /// when oversized), the all-hit flag, and the call's own stats.
    fn life(
        cache: &EvalCache,
        m: &CarbonModel,
        d: &ChipDesign,
        w: &Workload,
    ) -> (Option<LifecycleReport>, bool, PipelineStats) {
        life_keyed(cache, m, d, &key(d), w)
    }

    fn life_keyed(
        cache: &EvalCache,
        m: &CarbonModel,
        d: &ChipDesign,
        k: &Arc<DesignKey>,
        w: &Workload,
    ) -> (Option<LifecycleReport>, bool, PipelineStats) {
        let tags = EvalCache::stage_tags(m, Some(w));
        let (result, stages) = cache.run_or_eval(&tags, m, d, k, Some(w));
        let artifacts = result.unwrap();
        let report = match (&artifacts.embodied, &artifacts.operational) {
            (EmbodiedOutcome::Report(embodied), Some(operational)) => Some(LifecycleReport {
                embodied: Arc::clone(embodied),
                operational: Arc::clone(operational),
            }),
            _ => None,
        };
        (report, artifacts.all_hit, stages)
    }

    /// A bare cell lookup that stores `value` on a miss.
    fn get(cell: &StageCell<u8>, tag: u64, k: &Arc<DesignKey>, value: u8) -> (u8, bool) {
        let Ok(found) = cell.get_or_compute(tag, k, S0, &mut StageCounters::default(), || {
            Ok::<_, Infallible>(value)
        });
        found
    }

    fn len<T: Clone>(cell: &StageCell<T>) -> usize {
        let mut shards = [ShardStats::default(); SHARD_COUNT];
        cell.fold_shard_stats(&mut shards);
        shards.iter().map(|s| s.entries).sum()
    }

    #[test]
    fn second_lookup_hits_every_stage() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let (first, hit1, _) = life(&cache, &m, &d, &w);
        let (second, hit2, _) = life(&cache, &m, &d, &w);
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
        life(&cache, &base, &d, &w);

        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let (tags, moved_tags) = (
            EvalCache::stage_tags(&base, Some(&w)),
            EvalCache::stage_tags(&moved, Some(&w)),
        );
        assert_eq!(tags.embodied, moved_tags.embodied);
        assert_ne!(tags.operational, moved_tags.operational);
        let (report, hit, _) = life(&cache, &moved, &d, &w);
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
        life(&cache, &base, &d, &w);

        let moved = CarbonModel::new(
            ModelContext::builder()
                .fab_region(GridRegion::Renewable)
                .build(),
        );
        let (tags, moved_tags) = (
            EvalCache::stage_tags(&base, Some(&w)),
            EvalCache::stage_tags(&moved, Some(&w)),
        );
        assert_eq!(tags.operational, moved_tags.operational);
        assert_ne!(tags.embodied, moved_tags.embodied);
        let (report, _, _) = life(&cache, &moved, &d, &w);
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
        let (a, b) = (mono(5.0e9), mono(9.0e9));
        let ka = Arc::new(DesignKey::with_fingerprint(&a, 42));
        let kb = Arc::new(DesignKey::with_fingerprint(&b, 42));
        assert_eq!(ka.fingerprint(), kb.fingerprint());
        assert_ne!(ka, kb);
        let (ra, _, _) = life_keyed(&cache, &m, &a, &ka, &w);
        let (rb, hit, stages) = life_keyed(&cache, &m, &b, &kb, &w);
        assert!(!hit, "a colliding fingerprint must not hit");
        assert_eq!(stages.hits(), 0);
        assert_eq!(rb.unwrap(), m.lifecycle(&b, &w).unwrap());
        assert_ne!(ra, m.lifecycle(&b, &w).ok());
        // The colliding insert replaced the entry: the store holds one
        // artifact per stage and still answers `b` exactly.
        let cell: StageCell<u8> = StageCell::with_cap(DEFAULT_ARTIFACT_CAP);
        assert_eq!(get(&cell, 1, &ka, 1), (1, false));
        assert_eq!(get(&cell, 1, &kb, 2), (2, false));
        assert_eq!(len(&cell), 1);
        assert_eq!(cell.lookup(1, &ka), None);
        assert_eq!(cell.lookup(1, &kb), Some((2, S0)));
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
        let (r1, hit1, _) = life(&cache, &m, &d, &w);
        let (r2, hit2, _) = life(&cache, &m, &d, &w);
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
        life(&cache, &m, &d, &w);
        let longer = Workload::fixed(
            "app",
            Throughput::from_tops(50.0),
            TimeSpan::from_hours(2_000.0),
        );
        let (tags, longer_tags) = (
            EvalCache::stage_tags(&m, Some(&w)),
            EvalCache::stage_tags(&m, Some(&longer)),
        );
        assert_eq!(tags.embodied, longer_tags.embodied);
        assert_ne!(tags.operational, longer_tags.operational);
        let (_, hit, _) = life(&cache, &m, &d, &longer);
        assert!(!hit, "a different workload must re-price operations");
        assert_eq!(cache.stats().stages.embodied.hits, 1);
    }

    #[test]
    fn clear_drops_entries() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        life(&cache, &m, &mono(5.0e9), &w);
        assert_eq!(cache.stats().entries, 5);
        let ledger = cache.stats().stages;
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().stages, ledger, "the ledger survives clear");
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // One tag → one shard. With a cap of 32 the shard's share is
        // 32 / SHARD_COUNT = 4: filling it and inserting a fifth entry
        // must evict exactly the least-recently-used quarter (one
        // entry) — and a lookup decides recency, so touching the
        // oldest entry redirects eviction to the next-oldest.
        let cell: StageCell<u8> = StageCell::with_cap(4 * SHARD_COUNT);
        for i in 0..4u8 {
            cell.insert(7, &k(u64::from(i)), S0, i);
        }
        assert_eq!(len(&cell), 4);
        // Touch k0: k1 becomes the LRU entry.
        assert_eq!(get(&cell, 7, &k(0), 99), (0, true));
        cell.insert(7, &k(4), S0, 4);
        assert_eq!(len(&cell), 4, "one in, one out");
        assert_eq!(cell.lookup(7, &k(1)), None, "LRU entry evicted");
        assert_eq!(cell.lookup(7, &k(0)), Some((0, S0)), "touched entry kept");
        assert_eq!(cell.lookup(7, &k(4)), Some((4, S0)), "new entry stored");
        let mut shards = [ShardStats::default(); SHARD_COUNT];
        cell.fold_shard_stats(&mut shards);
        assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), 1);
    }

    #[test]
    fn counters_survive_eviction() {
        // The cap-and-drop regression: overflowing a stage store must
        // never reset the cumulative hit/miss ledger mid-stream. A
        // one-entry-per-shard cache evicts on nearly every insert.
        let cache = EvalCache::with_artifact_cap(SHARD_COUNT);
        let (m, w) = (model(), workload());
        let mut summed = PipelineStats::default();
        let mut previous = cache.stats().stages;
        for gates in [5.0e9, 5.0e9, 6.0e9, 7.0e9, 8.0e9, 5.0e9, 9.0e9, 6.0e9] {
            let (_, _, stages) = life(&cache, &m, &mono(gates), &w);
            summed = summed.merged(&stages);
            let now = cache.stats().stages;
            assert_eq!(now.since(&previous), stages, "one fold per call");
            previous = now;
        }
        assert!(cache.stats().evictions > 0, "the shards must overflow");
        assert_eq!(
            cache.stats().stages,
            summed,
            "evictions never touch the ledger"
        );
        assert!(summed.hits() > 0);
    }

    #[test]
    fn cache_stats_survive_eviction_end_to_end() {
        // The same regression at the EvalCache level: a cap-1 cache
        // evicts on nearly every evaluation, yet stats().stages only
        // ever grows and entries reflects what actually survived.
        let cache = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        life(&cache, &m, &mono(5.0e9), &w);
        let before = cache.stats();
        assert_eq!(before.stages.misses(), 5);
        life(&cache, &m, &mono(6.0e9), &w);
        let after = cache.stats();
        assert_eq!(
            after.stages.misses(),
            10,
            "counters accumulate across evictions"
        );
        assert!(after.stages.hits() >= before.stages.hits());
        assert!(after.entries <= 5 * SHARD_COUNT);
        assert!(after.evictions > 0);
    }

    #[test]
    fn tiny_caps_never_change_results() {
        // Eviction costs recomputation, never correctness: a cap-1
        // cache answers byte-identically to an uncapped one.
        let roomy = EvalCache::new();
        let tight = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        for gates in [5.0e9, 6.0e9, 5.0e9, 7.0e9, 6.0e9] {
            let d = mono(gates);
            assert_eq!(life(&roomy, &m, &d, &w).0, life(&tight, &m, &d, &w).0);
        }
    }

    #[test]
    fn sharded_reads_and_writes_interleave_safely() {
        // A seeded thread-stress loop over the sharded read/write
        // path: every stored value is a pure function of its (tag,
        // key), so any lookup that returns a value for the wrong key —
        // under any interleaving of reads, writes, and LRU evictions —
        // fails the assertion. Each thread's counters must account for
        // every lookup it made.
        const CAP: usize = 8 * SHARD_COUNT;
        let cell: StageCell<u64> = StageCell::with_cap(CAP);
        let keys: Vec<Arc<DesignKey>> = (0..32).map(k).collect();
        let counted: Vec<StageCounters> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let (cell, keys) = (&cell, &keys);
                    scope.spawn(move || {
                        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                        let mut counters = StageCounters::default();
                        for i in 0..2_000u64 {
                            seed = seed
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            let tag = seed >> 60; // 16 tags spread over shards
                            let k = (seed >> 32) & 31; // 32 keys per tag
                            let stamp = Stamp {
                                epoch: i / 500,
                                client: t,
                            };
                            let Ok((v, _)) = cell.get_or_compute(
                                tag,
                                &keys[k as usize],
                                stamp,
                                &mut counters,
                                || Ok::<_, Infallible>(tag ^ k),
                            );
                            assert_eq!(v, tag ^ k, "value belongs to another key");
                        }
                        counters
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &counted {
            assert_eq!(c.lookups(), 2_000, "every lookup counted once");
            assert!(c.cross_hits <= c.hits && c.client_hits <= c.hits);
        }
        assert!(counted.iter().any(|c| c.hits > 0 && c.misses > 0));
        assert!(
            len(&cell) <= cell.shard_cap * SHARD_COUNT,
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
        // Request 1: cold.
        cache.advance_epoch();
        let (_, _, s1) = life(&cache, &m, &d, &w);
        assert_eq!(s1.cross_hits(), 0);
        // Request 2: both artifact heads come from request 1.
        cache.advance_epoch();
        let (_, _, s2) = life(&cache, &m, &d, &w);
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.cross_hits(), 2, "warmth came from the earlier epoch");
        assert!((s2.cross_hit_rate() - 1.0).abs() < 1e-12);
        // A re-evaluation *within* request 2 hits, but not cross-epoch.
        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let (_, _, s3) = life(&cache, &moved, &d, &w);
        // Embodied head: cross hit (inserted in request 1). The
        // physical/power artifacts under the recomputed operational
        // stage are cross hits too.
        assert_eq!(s3.embodied.cross_hits, 1);
        assert_eq!(s3.operational.misses, 1);
        // The ledger carries the same attribution.
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
        // Client 1 computes everything.
        cache.begin_request(1);
        let (_, _, s1) = life(&cache, &m, &d, &w);
        assert_eq!(s1.client_hits(), 0);
        // Client 2 answers both heads from client 1's artifacts.
        cache.begin_request(2);
        let (_, _, s2) = life(&cache, &m, &d, &w);
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.client_hits(), 2, "warmth came from another client");
        assert_eq!(s2.cross_hits(), 2, "and from an earlier request");
        assert!((s2.client_hit_rate() - 1.0).abs() < 1e-12);
        // Client 1 returning sees plain cross-request hits, not
        // cross-client ones — it computed these artifacts itself.
        cache.begin_request(1);
        let (_, _, s3) = life(&cache, &m, &d, &w);
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
        let (only, s1) = cache.run_or_eval(&only_tags, &m, &d, &key(&d), None);
        let only = only.unwrap();
        assert!(matches!(only.embodied, EmbodiedOutcome::Report(_)));
        assert!(only.operational.is_none());
        assert_eq!(s1.embodied.misses, 1);
        assert_eq!(s1.operational.lookups(), 0);
        // ...and a later lifecycle request answers embodied from it.
        cache.advance_epoch();
        let (report, _, s2) = life(&cache, &m, &d, &w);
        let fresh = m.lifecycle(&d, &w).unwrap();
        assert_eq!(report.unwrap(), fresh);
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
        let before = cache.stats().stages;
        life(&cache, &m, &mono(5.0e9), &w);
        let mid = cache.stats().stages;
        life(&cache, &m, &mono(5.0e9), &w);
        let after = cache.stats().stages;
        let cold = mid.since(&before);
        let warm = after.since(&mid);
        assert_eq!(cold.misses(), 5);
        assert_eq!(cold.hits(), 0);
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.hits(), 2, "both artifact heads answered");
        assert!((warm.warm_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_attributes_hits_by_stamp() {
        let now = Stamp {
            epoch: 3,
            client: 1,
        };
        let mut c = StageCounters::default();
        c.record(2, None, now);
        c.record(1, Some(now), now);
        c.record(
            4,
            Some(Stamp {
                epoch: 2,
                client: 1,
            }),
            now,
        );
        c.record(
            3,
            Some(Stamp {
                epoch: 3,
                client: 2,
            }),
            now,
        );
        assert_eq!(
            c,
            StageCounters {
                hits: 8,
                cross_hits: 4,
                client_hits: 3,
                misses: 2
            }
        );
    }
}
