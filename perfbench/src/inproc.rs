//! The three in-process workloads: `sweep_cold`, `sweep_reprice` and
//! `explore_refine`. Each drives a seeded request stream through
//! [`request::run`] on one long-lived `ScenarioSession`.

use crate::gen::{self, Rng, Sizes};
use crate::layers;
use crate::report::{Facts, LayerTotals, Report};
use crate::request::{self, Done, Sample};
use crate::stats::{self, Completion, CpuSample};
use crate::Config;
use std::time::{Duration, Instant};
use tdc_core::service::ScenarioSession;

/// An in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Large cold sweeps, every geometry new.
    SweepCold,
    /// One fixed plan re-priced under changing use-phase inputs.
    SweepReprice,
    /// Explorations with lifetime refinement, every geometry new.
    ExploreRefine,
}

impl Kind {
    fn input(self, seed: u64, sizes: &Sizes, i: u64) -> String {
        match self {
            Kind::SweepCold => gen::sweep_cold(seed, sizes, i),
            Kind::SweepReprice => gen::sweep_reprice(seed, sizes, i),
            Kind::ExploreRefine => gen::explore_refine(seed, sizes, i),
        }
    }
}

/// Splits of a timed phase: rates are taken per slice and reported as
/// the median across slices.
pub const SLICES: u32 = 10;

/// Everything one timed phase measured.
struct Phase {
    completions: Vec<Completion>,
    cpu: Vec<CpuSample>,
    failed: u64,
    errors: Vec<String>,
    /// Sum of request wall times, seconds (excludes trace analysis).
    busy_s: f64,
    next_index: u64,
}

/// Runs requests `first..` until `duration` has passed. With `layers`
/// given, tdc-obs recording is on and each request's spans are
/// attributed into it between requests (outside the request timing).
#[allow(clippy::too_many_arguments)]
fn phase(
    kind: Kind,
    cfg: &Config,
    session: &ScenarioSession,
    first: u64,
    duration: Duration,
    prev: &mut Option<Done>,
    reservoir: &mut Reservoir,
    mut layers: Option<&mut LayerTotals>,
) -> Phase {
    let pid = std::process::id();
    let slice = duration / SLICES;
    let start = Instant::now();
    let deadline = start + duration;
    let mut out = Phase {
        completions: Vec::new(),
        cpu: vec![CpuSample {
            at: start,
            cpu_ms: stats::cpu_ms(pid).unwrap_or(0.0),
        }],
        failed: 0,
        errors: Vec::new(),
        busy_s: 0.0,
        next_index: first,
    };
    let mut boundary = start + slice;
    let mut i = first;
    while Instant::now() < deadline {
        let text = kind.input(cfg.seed, &cfg.sizes, i);
        let samples_before = tdc_obs::metrics::TRACES_INGEST_SAMPLES.get();
        let t0 = Instant::now();
        let result = request::run(session, &text, &cfg.work_dir);
        let at = Instant::now();
        let latency = at.duration_since(t0);
        out.busy_s += latency.as_secs_f64();
        match result {
            Ok(done) => {
                out.completions.push(Completion {
                    at,
                    latency_ms: latency.as_secs_f64() * 1e3,
                    points: done.points,
                });
                if let Some(totals) = layers.as_deref_mut() {
                    let spans = tdc_obs::take_spans();
                    let capped = spans.len() >= tdc_obs::MAX_SPANS;
                    let attribution = layers::attribute(&spans, done.explore);
                    let ingested = tdc_obs::metrics::TRACES_INGEST_SAMPLES.get() - samples_before;
                    totals.add(
                        Facts::of(&done, prev.as_ref(), ingested),
                        attribution,
                        capped,
                    );
                }
                reservoir.offer(&text, &done);
                *prev = Some(done);
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 4 {
                    out.errors.push(format!("request {i}: {e}"));
                }
            }
        }
        if at >= boundary {
            out.cpu.push(CpuSample {
                at,
                cpu_ms: stats::cpu_ms(pid).unwrap_or(0.0),
            });
            while boundary <= at {
                boundary += slice;
            }
        }
        i += 1;
    }
    if let Some(last) = out.completions.last() {
        if out.cpu.last().is_some_and(|s| s.at < last.at) {
            out.cpu.push(CpuSample {
                at: last.at,
                cpu_ms: stats::cpu_ms(pid).unwrap_or(0.0),
            });
        }
    }
    out.next_index = i;
    out
}

/// Seeded reservoir sample (Algorithm R) of the timed requests, for
/// the oracle: uniform over the whole run however long it lasts.
struct Reservoir {
    rng: Rng,
    cap: usize,
    seen: u64,
    kept: Vec<Sample>,
}

impl Reservoir {
    fn new(seed: u64, cap: usize) -> Self {
        Self {
            rng: Rng::new(seed, 0xA00),
            cap,
            seen: 0,
            kept: Vec::with_capacity(cap),
        }
    }

    fn offer(&mut self, text: &str, done: &Done) {
        self.seen += 1;
        let slot = if self.kept.len() < self.cap {
            Some(self.kept.len())
        } else {
            let j = self.rng.next_u64() % self.seen;
            usize::try_from(j).ok().filter(|&j| j < self.cap)
        };
        let Some(slot) = slot else { return };
        let sample = Sample {
            text: text.to_owned(),
            output: done.output.clone(),
            request: done.request.clone(),
            response: done.response.clone(),
        };
        if slot == self.kept.len() {
            self.kept.push(sample);
        } else {
            self.kept[slot] = sample;
        }
    }
}

fn write_traces(cfg: &Config) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.work_dir)?;
    for k in 0..cfg.sizes.traces {
        std::fs::write(
            cfg.work_dir.join(gen::trace_name(k)),
            gen::trace_csv(cfg.seed, &cfg.sizes, k),
        )?;
    }
    Ok(())
}

/// Runs one in-process workload and reports it.
#[must_use]
pub fn run(kind: Kind, cfg: &Config) -> Report {
    let mut report = Report::default();
    if kind == Kind::SweepReprice {
        if let Err(e) = write_traces(cfg) {
            report.fail(format!("cannot write trace inputs: {e}"));
            return report;
        }
    }

    // Set-up: a fresh session answering the workload's first request,
    // repeated; the last session carries on into the timed phase.
    // Sessions are serial: on the 2-CPU recording host the hypervisor
    // steals time whenever both CPUs are busy, which moved 2-worker
    // wall-clock figures by up to a fifth between runs.
    let first = kind.input(cfg.seed, &cfg.sizes, 0);
    let mut session = None;
    let mut first_points = 0;
    let setup = stats::spaced(cfg.sizes.setup_reps, cfg.sizes.setup_spacing, || {
        session = None;
        let t0 = Instant::now();
        let fresh = ScenarioSession::serial();
        let result = request::run(&fresh, &first, &cfg.work_dir);
        let elapsed = t0.elapsed().as_secs_f64();
        report.attempted += 1;
        match result {
            Ok(done) => first_points = Facts::of(&done, None, 0).plan_points,
            Err(e) => report.fail(format!("set-up request: {e}")),
        }
        session = Some(fresh);
        elapsed
    });
    let session = session.unwrap_or_else(ScenarioSession::serial);

    let mut prev = None;
    let mut reservoir = Reservoir::new(cfg.seed, cfg.sizes.oracle_requests);
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let timed = if cfg.trace { seconds / 2 } else { seconds };
    let steal = stats::steal_ticks();
    let untraced = phase(
        kind,
        cfg,
        &session,
        1,
        timed,
        &mut prev,
        &mut reservoir,
        None,
    );
    report.steal(stats::steal_share(steal, stats::steal_ticks()));
    let peak_rss = stats::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    report.absorb(
        untraced.completions.len(),
        untraced.failed,
        untraced.errors.clone(),
    );

    if cfg.trace {
        let mut totals = LayerTotals::default();
        tdc_obs::reset();
        tdc_obs::set_enabled(true);
        let traced = phase(
            kind,
            cfg,
            &session,
            untraced.next_index,
            timed,
            &mut prev,
            &mut reservoir,
            Some(&mut totals),
        );
        tdc_obs::set_enabled(false);
        tdc_obs::reset();
        report.absorb(traced.completions.len(), traced.failed, traced.errors);
        totals.set_overhead(
            untraced.completions.len(),
            untraced.busy_s,
            traced.completions.len(),
            traced.busy_s,
        );
        totals.finish(&mut report, None);
    } else {
        let tp = stats::throughput(&untraced.completions, &untraced.cpu);
        report.end_to_end(&setup, &tp, peak_rss);
    }
    drop(prev);

    let (failed, notes) = request::check(&reservoir.kept, &cfg.work_dir, cfg.seed);
    report.oracle(reservoir.kept.len(), failed, notes);
    report.size("plan_points", first_points as f64);
    report.size("setup_reps", cfg.sizes.setup_reps as f64);
    report.size("workers", 1.0);
    if kind == Kind::SweepReprice {
        report.size("traces", cfg.sizes.traces as f64);
        report.size("trace_samples", cfg.sizes.trace_samples as f64);
    }
    report
}
