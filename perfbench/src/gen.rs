//! Seeded input generation. Every scenario document, serve frame and
//! trace CSV the benchmark feeds the program comes from here, as a pure
//! function of the `--seed` and the request index: the same seed gives
//! byte-identical inputs, a different seed different ones.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and good enough to pick inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one (seed, stream) pair, so independent input
    /// streams of one run never share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let top = (self.next_u64() >> 11) as f64;
        top / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("index below a usize bound")
    }
}

/// Use-phase grid regions the scenarios draw from (registry tokens).
const REGIONS: [&str; 8] = [
    "world",
    "france",
    "coal",
    "renewable",
    "us",
    "germany",
    "sweden",
    "taiwan",
];

/// Input sizes of one benchmark run. [`Sizes::full`] is what the
/// benchmark measures; [`Sizes::tiny`] keeps the self-tests fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `sweep_cold`: the tier-count axis runs `2..=cold_max_tiers`
    /// over every node and technology.
    pub cold_max_tiers: u32,
    /// `sweep_reprice`: the tier-count axis of the one fixed plan.
    pub reprice_max_tiers: u32,
    /// `sweep_reprice`: trace CSVs generated per run.
    pub traces: usize,
    /// `sweep_reprice`: samples per trace CSV.
    pub trace_samples: usize,
    /// `explore_refine`: the node axis of each explored plan.
    pub explore_nodes: &'static [u32],
    /// `explore_refine`: the tier-count axis runs `2..=explore_max_tiers`.
    pub explore_max_tiers: u32,
    /// `explore_refine`: uniform lifetime samples before bisection.
    pub refine_samples: u32,
    /// `serve_run`: distinct die geometries in the frame pool.
    pub serve_geometries: usize,
    /// Times set-up is repeated per run (its median is `setup_s`).
    pub setup_reps: usize,
    /// How far apart the set-up repetitions start.
    pub setup_spacing: std::time::Duration,
    /// Requests per in-process run replayed by the oracle.
    pub oracle_requests: usize,
    /// Frames per serve client replayed by the oracle.
    pub oracle_frames: usize,
}

impl Sizes {
    /// The measured configuration.
    #[must_use]
    pub fn full() -> Self {
        Self {
            cold_max_tiers: 16,
            reprice_max_tiers: 24,
            traces: 4,
            trace_samples: 20_000,
            explore_nodes: &[28, 16, 12, 10, 7, 5, 3],
            explore_max_tiers: 8,
            refine_samples: 9,
            serve_geometries: 3,
            setup_reps: 11,
            setup_spacing: std::time::Duration::from_millis(250),
            oracle_requests: 8,
            oracle_frames: 1_500,
        }
    }

    /// A configuration small enough for `cargo test`.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            cold_max_tiers: 2,
            reprice_max_tiers: 2,
            traces: 2,
            trace_samples: 200,
            explore_nodes: &[7, 5],
            explore_max_tiers: 3,
            refine_samples: 3,
            serve_geometries: 2,
            setup_reps: 2,
            setup_spacing: std::time::Duration::ZERO,
            oracle_requests: 3,
            oracle_frames: 20,
        }
    }
}

fn tier_axis(max: u32) -> String {
    let tiers: Vec<String> = (2..=max).map(|t| t.to_string()).collect();
    tiers.join(", ")
}

/// `sweep_cold` request `i`: every node × (2D + all technologies) ×
/// tier counts `2..=max`, at a gate count no other request of the run
/// uses — strictly increasing in `i`, jittered by the seed — so every
/// geometry is new to the session.
#[must_use]
pub fn sweep_cold(seed: u64, sizes: &Sizes, i: u64) -> String {
    let mut rng = Rng::new(seed, 0x100 + i);
    #[allow(clippy::cast_precision_loss)]
    let gates = 5.0e9 + i as f64 * 4.0e6 + (rng.unit() * 2.0e6).floor();
    let region = REGIONS[rng.below(REGIONS.len())];
    let hours = 2_000 + rng.below(8_000);
    let util = 0.1 + 0.05 * rng.below(12) as f64;
    format!(
        "{{\"name\": \"cold-{i}\", \
         \"workload\": {{\"name\": \"inference\", \"throughput_tops\": 254, \
         \"active_hours\": {hours}, \"average_utilization\": {util:.2}}}, \
         \"context\": {{\"use_region\": \"{region}\"}}, \
         \"sweep\": {{\"gate_count\": {gates:.1}, \"tier_counts\": [{tiers}], \
         \"efficiency_tops_per_watt\": 2.74}}}}",
        tiers = tier_axis(sizes.cold_max_tiers),
    )
}

/// The file name of `sweep_reprice` trace `k` (written by
/// [`trace_csv`] into the run's work directory).
#[must_use]
pub fn trace_name(k: usize) -> String {
    format!("reprice-{k}.csv")
}

/// `sweep_reprice` request `i`: one fixed plan (the gate count depends
/// only on the seed), re-priced under a use phase no earlier request
/// of the run had — a distinct active-hours value, a drawn grid region
/// and utilization, and on every fourth request a trace CSV instead of
/// the scalar utilization.
#[must_use]
pub fn sweep_reprice(seed: u64, sizes: &Sizes, i: u64) -> String {
    let gates = 10.0e9 + (Rng::new(seed, 0x200).unit() * 1.0e6).floor();
    let mut rng = Rng::new(seed, 0x300 + i);
    #[allow(clippy::cast_precision_loss)]
    let hours = 3_000.0 + i as f64 * 1.5 + rng.unit();
    let region = REGIONS[rng.below(REGIONS.len())];
    let usage = if i % 4 == 3 {
        let k = rng.below(sizes.traces);
        format!("\"trace\": {{\"path\": \"{}\"}}", trace_name(k))
    } else {
        format!("\"average_utilization\": {:.3}", 0.1 + 0.8 * rng.unit())
    };
    format!(
        "{{\"name\": \"reprice-{i}\", \
         \"workload\": {{\"name\": \"inference\", \"throughput_tops\": 254, \
         \"active_hours\": {hours:.4}, \"calendar_years\": 10, {usage}}}, \
         \"context\": {{\"use_region\": \"{region}\"}}, \
         \"sweep\": {{\"gate_count\": {gates:.1}, \"tier_counts\": [{tiers}], \
         \"efficiency_tops_per_watt\": 2.74}}}}",
        tiers = tier_axis(sizes.reprice_max_tiers),
    )
}

/// Trace CSV `k` of a `sweep_reprice` run: a duty cycle of
/// `samples` one-minute samples with utilization and grid-intensity
/// columns, random-walked from the seed.
#[must_use]
pub fn trace_csv(seed: u64, sizes: &Sizes, k: usize) -> String {
    let mut rng = Rng::new(seed, 0x400 + k as u64);
    let mut out = String::with_capacity(sizes.trace_samples * 24);
    out.push_str(
        "# generated benchmark trace\n# timestamp_hours,utilization,intensity_g_per_kwh\n",
    );
    let mut util: f64 = 0.3;
    let mut intensity: f64 = 200.0 + 300.0 * rng.unit();
    for s in 0..sizes.trace_samples {
        // Hold values for a few samples so the reader's run-length
        // compaction sees realistic segments.
        if rng.below(4) == 0 {
            util = (util + 0.2 * (rng.unit() - 0.5)).clamp(0.0, 1.0);
            intensity = (intensity + 40.0 * (rng.unit() - 0.5)).clamp(20.0, 900.0);
        }
        #[allow(clippy::cast_precision_loss)]
        let hours = s as f64 / 60.0;
        let _ = writeln!(out, "{hours:.6},{util:.4},{intensity:.1}");
    }
    out
}

/// `explore_refine` request `i`: a mid-size plan at a gate count no
/// other request of the run uses, explored for the lifecycle ×
/// embodied frontier under area/viability constraints, ranked against
/// the 7 nm planar baseline, with the service lifetime sampled. The
/// bisection budget is 0, so every request costs the same number of
/// plan evaluations wherever its winner flips fall.
#[must_use]
pub fn explore_refine(seed: u64, sizes: &Sizes, i: u64) -> String {
    let mut rng = Rng::new(seed, 0x500 + i);
    #[allow(clippy::cast_precision_loss)]
    let gates = 10.0e9 + i as f64 * 1.0e6 + (rng.unit() * 0.5e6).floor();
    let region = REGIONS[rng.below(REGIONS.len())];
    let bytes_per_op = 0.3 + 0.1 * rng.below(5) as f64;
    let nodes: Vec<String> = sizes.explore_nodes.iter().map(u32::to_string).collect();
    format!(
        "{{\"name\": \"explore-{i}\", \
         \"workload\": {{\"name\": \"inference\", \"throughput_tops\": 254, \
         \"active_hours\": 4745, \"average_utilization\": 0.15, \
         \"calendar_years\": 10, \"bytes_per_op\": {bytes_per_op:.1}}}, \
         \"context\": {{\"use_region\": \"{region}\"}}, \
         \"sweep\": {{\"gate_count\": {gates:.1}, \"nodes_nm\": [{nodes}], \
         \"technologies\": [\"2d\", \"micro\", \"emib\", \"si_int\"], \
         \"tier_counts\": [{tiers}]}}, \
         \"explore\": {{\"objectives\": [\"lifecycle\", \"embodied\"], \
         \"constraints\": {{\"require_viable\": true, \"max_package_area_mm2\": 2500}}, \
         \"baseline\": \"7 nm/2D\", \
         \"refine\": {{\"axis\": \"lifetime_years\", \"min\": 2, \"max\": 25, \
         \"samples\": {samples}, \"budget\": 0}}}}}}",
        nodes = nodes.join(", "),
        tiers = tier_axis(sizes.explore_max_tiers),
        samples = sizes.refine_samples,
    )
}

/// The `serve_run` scenario pool: a few die geometries (gate counts
/// drawn from the seed) under every combination of use-phase inputs,
/// so frames share embodied-chain artifacts and differ only in what
/// the operational stage prices.
#[must_use]
pub fn serve_pool(seed: u64, sizes: &Sizes) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x600);
    let gates: Vec<f64> = (0..sizes.serve_geometries)
        .map(|g| 6.0e9 + 3.0e9 * g as f64 + (rng.unit() * 1.0e6).floor())
        .collect();
    let mut pool = Vec::new();
    for (g, gate_count) in gates.iter().enumerate() {
        for region in REGIONS {
            for hours in [2_190, 4_745, 9_490] {
                for util in [0.15, 0.4] {
                    pool.push(format!(
                        "{{\"name\": \"pool-{g}-{region}-{hours}-{util}\", \
                         \"design\": {{\"dies\": [{{\"name\": \"soc\", \"node_nm\": 7, \
                         \"gate_count\": {gate_count:.1}, \"efficiency_tops_per_watt\": 2.74, \
                         \"compute_share\": 1}}]}}, \
                         \"workload\": {{\"name\": \"inference\", \"throughput_tops\": 254, \
                         \"active_hours\": {hours}, \"average_utilization\": {util}}}, \
                         \"context\": {{\"use_region\": \"{region}\"}}}}"
                    ));
                }
            }
        }
    }
    pool
}

/// Frame `n` (1-based id) of serve client `client`: a `run` frame over
/// a pool entry drawn from the seed.
#[must_use]
pub fn serve_frame(seed: u64, pool: &[String], client: usize, n: u64) -> String {
    let mut rng = Rng::new(seed, 0x700 + ((client as u64) << 40) + n);
    let scenario = &pool[rng.below(pool.len())];
    format!("{{\"id\": {n}, \"command\": \"run\", \"scenario\": {scenario}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> Vec<String> {
        let sizes = Sizes::full();
        let pool = serve_pool(seed, &sizes);
        let mut out = Vec::new();
        for i in 0..20 {
            out.push(sweep_cold(seed, &sizes, i));
            out.push(sweep_reprice(seed, &sizes, i));
            out.push(explore_refine(seed, &sizes, i));
            out.push(serve_frame(seed, &pool, 0, i + 1));
            out.push(serve_frame(seed, &pool, 1, i + 1));
        }
        for k in 0..sizes.traces {
            out.push(trace_csv(seed, &sizes, k));
        }
        out.extend(pool);
        out
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(all_inputs(7), all_inputs(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (all_inputs(7), all_inputs(8));
        assert_eq!(a.len(), b.len());
        // Every generated stream depends on the seed, not just some.
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > a.len() * 9 / 10, "{differing}/{}", a.len());
    }

    #[test]
    fn cold_and_explore_gate_counts_never_repeat() {
        let sizes = Sizes::full();
        let gate = |doc: &str| {
            let v = tdc_cli::JsonValue::parse(doc).expect("generated json");
            v.get("sweep")
                .and_then(|s| s.get("gate_count"))
                .and_then(tdc_cli::JsonValue::as_f64)
                .expect("gate_count")
        };
        for make in [sweep_cold, explore_refine] {
            let gates: Vec<f64> = (0..500).map(|i| gate(&make(3, &sizes, i))).collect();
            assert!(gates.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn serve_frames_of_two_clients_differ() {
        let sizes = Sizes::full();
        let pool = serve_pool(1, &sizes);
        let a: Vec<String> = (1..30).map(|n| serve_frame(1, &pool, 0, n)).collect();
        let b: Vec<String> = (1..30).map(|n| serve_frame(1, &pool, 1, n)).collect();
        assert_ne!(a, b);
    }
}
