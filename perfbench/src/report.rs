//! What a run reports: the result line the harness reads, the record
//! line a reader keeps, and the per-layer totals of a traced run.

use crate::layers::{Attribution, LAYERS};
use crate::request::Done;
use crate::stats::{spread, Spread, Throughput};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tdc_core::service::{EvalRequest, EvalResponse};

/// Largest share of the traced request wall time the layers may leave
/// unexplained before the layer-sum check fails, in-process. The
/// attribution covers every instant of a request by construction; what
/// remains is the glue between the benchmark's own spans.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// The same bound for `serve_run`, whose in-frame layers come from an
/// in-process re-enactment of sampled frames while the frame time comes
/// from the live, concurrently loaded server: the two are different
/// executions of the same calls, so they agree only to within CPU
/// contention and cache effects.
pub const SERVED_LAYER_SUM_TOLERANCE: f64 = 0.30;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the underlying samples (the record states it).
    pub spread: Option<Spread>,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: requests, frames, set-up requests.
    pub attempted: u64,
    /// Failed requests, error frames and oracle mismatches.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Per-workload input sizes.
    pub sizes: Vec<(&'static str, f64)>,
    /// Named pass/fail checks besides the oracle (the layer-sum check).
    pub checks: Vec<(&'static str, bool)>,
    /// Free-form facts for the record (tail percentile label, oracle
    /// sample counts, first errors).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one failed operation that was not already counted as
    /// attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Adds a timed phase's request counts.
    pub fn absorb(&mut self, completed: usize, failed: u64, errors: Vec<String>) {
        self.attempted += completed as u64 + failed;
        self.failed += failed;
        self.notes.extend(errors);
    }

    /// Adds the oracle's verdict: each mismatching sample is one more
    /// failed operation.
    pub fn oracle(&mut self, checked: usize, failed: u64, notes: Vec<String>) {
        self.failed += failed;
        self.notes
            .push(format!("oracle checked={checked} failed={failed}"));
        self.notes.extend(notes);
    }

    /// Notes the host's steal share during the untraced timed phase: on
    /// a virtual machine, time the hypervisor gave to other guests slows
    /// every wall-clock figure of the run.
    pub fn steal(&mut self, share: f64) {
        self.notes.push(format!(
            "host steal {:.2}% of machine CPU time in the timed phase",
            share * 100.0
        ));
    }

    /// Records an input size.
    pub fn size(&mut self, name: &'static str, value: f64) {
        self.sizes.push((name, value));
    }

    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, s: Option<Spread>) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            spread: s,
        });
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, setup_s: &[f64], tp: &Throughput, peak_rss_mb: f64) {
        let setup = spread(setup_s);
        self.metric("setup_s", "s", setup.median, Some(setup));
        self.metric(
            "requests_per_s",
            "1/s",
            tp.requests_per_s.value,
            Some(tp.requests_per_s.slices),
        );
        self.metric(
            "points_per_s",
            "1/s",
            tp.points_per_s.value,
            Some(tp.points_per_s.slices),
        );
        self.metric(
            "request_p50_ms",
            "ms",
            tp.latency_ms.median,
            Some(tp.latency_ms),
        );
        self.notes.push(format!(
            "request_p90_ms is the {} of {} requests",
            tp.tail.0, tp.requests
        ));
        self.metric("request_p90_ms", "ms", tp.tail.1, None);
        self.metric(
            "cpu_ms_per_request",
            "ms",
            tp.cpu_ms_per_request.value,
            Some(tp.cpu_ms_per_request.slices),
        );
        self.metric("peak_rss_mb", "MiB", peak_rss_mb, None);
    }

    /// Whether every operation succeeded and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The record line: the run's provenance, sizes, checks, and every
    /// metric with the median and quartiles of its samples.
    #[must_use]
    pub fn record_line(&self, provenance: &[(&str, String)]) -> String {
        let mut out = String::from("{\"record\": {");
        for (k, v) in provenance {
            let _ = write!(out, "\"{k}\": {}, ", v);
        }
        out.push_str("\"sizes\": {");
        for (i, (k, v)) in self.sizes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {}", number(*v));
        }
        out.push_str("}, \"checks\": {");
        for (i, (k, ok)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {ok}");
        }
        out.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                number(m.value),
                m.unit
            );
            if let Some(s) = m.spread {
                let _ = write!(
                    out,
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                    number(s.median),
                    number(s.q1),
                    number(s.q3),
                    s.n
                );
            }
            out.push('}');
        }
        out.push_str("}, \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", quote(note));
        }
        out.push_str("]}}");
        out
    }
}

/// A JSON number: finite values as Rust prints them (shortest exact
/// round trip), anything else as 0.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-request facts of one traced request, beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    /// Points of the request's plan (1 for a single run).
    pub plan_points: u64,
    /// Stage cache lookups (hits + misses) from `RequestStats`.
    pub lookups: u64,
    /// Stage cache hits.
    pub hits: u64,
    /// `SweepStats::delta_skips` of a sweep.
    pub delta_skips: u64,
    /// Plan evaluations of an exploration (1 + refinements).
    pub explore_evals: u64,
    /// Rendered report bytes.
    pub report_bytes: u64,
    /// Whether the request resolved through a registry of its own.
    pub registry_built: bool,
    /// Trace samples ingested.
    pub trace_samples: u64,
}

impl Facts {
    /// The facts of a completed in-process request; `prev` is the
    /// previous request, still alive, whose registry it is compared to.
    #[must_use]
    pub fn of(done: &Done, prev: Option<&Done>, trace_samples: u64) -> Self {
        let stages = &done.stats.stages;
        Self {
            plan_points: match &done.request {
                EvalRequest::Sweep { plan, .. } | EvalRequest::Explore { plan, .. } => {
                    plan.len() as u64
                }
                _ => 1,
            },
            lookups: stages.hits() + stages.misses(),
            hits: stages.hits(),
            delta_skips: match &done.response {
                EvalResponse::Sweep(result) => result.stats().delta_skips,
                _ => 0,
            },
            explore_evals: match &done.response {
                EvalResponse::Explore(result) => {
                    1 + result.report().refine.as_ref().map_or(0, |r| r.evaluations) as u64
                }
                _ => 0,
            },
            report_bytes: done.output.len() as u64,
            registry_built: prev.is_none_or(|p| p.registry_addr != done.registry_addr),
            trace_samples,
        }
    }
}

/// Live-server figures of a traced `serve_run` phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServedFigures {
    /// Frames in the traced phase.
    pub frames: u64,
    /// Mean client round-trip time, ms.
    pub rtt_ms: f64,
    /// Mean server `serve.frame` span, ms (from the metrics frame's
    /// histogram sum and count).
    pub frame_ms: f64,
    /// The metrics frame's `serve.frame.ns` p50, µs (a log2 bucket's
    /// upper bound).
    pub frame_p50_us: f64,
    /// Server stage-cache lookups and hits over the phase.
    pub lookups: u64,
    /// Hits among them.
    pub hits: u64,
    /// Server stage kernel evaluations over the phase.
    pub stage_evals: u64,
}

/// Per-layer sums over the requests of a traced phase.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    requests: u64,
    wall_ns: f64,
    /// Per-request self-time of each layer (and `unattributed_ms`), ns.
    self_ns: BTreeMap<&'static str, Vec<f64>>,
    batch_ns: f64,
    execute_ns: f64,
    execute_calls: u64,
    stage_evals: u64,
    facts: Vec<Facts>,
    missing: u64,
    capped: u64,
    overhead: f64,
}

impl LayerTotals {
    /// Adds one traced request.
    pub fn add(&mut self, facts: Facts, attribution: Option<Attribution>, capped: bool) {
        self.capped += u64::from(capped);
        let Some(a) = attribution else {
            self.missing += 1;
            return;
        };
        self.requests += 1;
        #[allow(clippy::cast_precision_loss)]
        let wall = a.wall_ns as f64;
        self.wall_ns += wall;
        for name in LAYERS.iter().chain(&["unattributed_ms"]) {
            let v = a.self_ns.get(name).copied().unwrap_or(0.0);
            self.self_ns.entry(name).or_default().push(v);
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.batch_ns += a.batch_ns as f64;
            self.execute_ns += a.execute_ns as f64;
        }
        self.execute_calls += a.execute_calls;
        self.stage_evals += a.stage_evals;
        self.facts.push(facts);
    }

    /// Records the tracing overhead: how much lower the traced phase's
    /// request rate is than the untraced phase's (both over request
    /// wall time only).
    pub fn set_overhead(&mut self, untraced: usize, untraced_s: f64, traced: usize, traced_s: f64) {
        #[allow(clippy::cast_precision_loss)]
        let (u, t) = (untraced as f64 / untraced_s, traced as f64 / traced_s);
        self.overhead = if u > 0.0 && t.is_finite() {
            (u - t) / u
        } else {
            0.0
        };
    }

    #[allow(clippy::cast_precision_loss)]
    fn per_request(&self, total: f64) -> f64 {
        total / self.requests.max(1) as f64
    }

    fn mean_ms(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| self.per_request(v.iter().sum()) / 1e6)
    }

    fn fact_mean(&self, f: impl Fn(&Facts) -> u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        self.per_request(self.facts.iter().map(|x| f(x) as f64).sum())
    }

    /// Pushes every per-layer metric; `served` replaces the cache and
    /// stage-count figures with the live server's and adds the
    /// transport split.
    pub fn finish(&self, report: &mut Report, served: Option<ServedFigures>) {
        for name in LAYERS {
            let per_req: Vec<f64> = self
                .self_ns
                .get(name)
                .map(|v| v.iter().map(|ns| ns / 1e6).collect())
                .unwrap_or_default();
            report.metric(name, "ms", self.mean_ms(name), Some(spread(&per_req)));
        }
        let in_frame: f64 = LAYERS
            .iter()
            .filter(|l| !matches!(**l, "json.parse_ms" | "scenario.schema_ms"))
            .map(|l| self.mean_ms(l))
            .sum();
        let wall_ms = self.per_request(self.wall_ns) / 1e6;
        let (unattributed, request_ms, tolerance) = match served {
            // The frame span opens after parse and schema; what it
            // leaves of the round trip is transport.
            Some(s) => (s.frame_ms - in_frame, s.rtt_ms, SERVED_LAYER_SUM_TOLERANCE),
            None => (
                self.mean_ms("unattributed_ms"),
                wall_ms,
                LAYER_SUM_TOLERANCE,
            ),
        };
        report.metric("unattributed_ms", "ms", unattributed, None);
        report.metric("traced.request_ms", "ms", request_ms, None);
        let ok = self.requests > 0
            && self.missing == 0
            && self.capped == 0
            && unattributed.abs() <= tolerance * request_ms;
        report.checks.push(("layer_sum", ok));
        report.notes.push(format!(
            "layer sum: unattributed {unattributed:.6} ms of {request_ms:.6} ms per request \
             (tolerance {:.0}%), {} requests traced, {} without a root, {} hit the span cap",
            tolerance * 100.0,
            self.requests,
            self.missing,
            self.capped
        ));

        report.metric(
            "sweep.batch_ms",
            "ms",
            self.per_request(self.batch_ns) / 1e6,
            None,
        );
        report.metric(
            "sweep.execute_ms",
            "ms",
            self.per_request(self.execute_ns) / 1e6,
            None,
        );
        #[allow(clippy::cast_precision_loss)]
        let calls = self.per_request(self.execute_calls as f64);
        report.metric("sweep.execute_calls", "count", calls, None);
        report.metric(
            "sweep.delta_skips",
            "count",
            self.fact_mean(|f| f.delta_skips),
            None,
        );
        report.metric(
            "plan.points",
            "count",
            self.fact_mean(|f| f.plan_points),
            None,
        );
        report.metric(
            "registry.builds_per_request",
            "count",
            self.fact_mean(|f| u64::from(f.registry_built)),
            None,
        );
        report.metric(
            "traces.samples",
            "count",
            self.fact_mean(|f| f.trace_samples),
            None,
        );
        report.metric(
            "explore.evals",
            "count",
            self.fact_mean(|f| f.explore_evals),
            None,
        );
        report.metric(
            "report.bytes",
            "B",
            self.fact_mean(|f| f.report_bytes),
            None,
        );
        #[allow(clippy::cast_precision_loss)]
        let (lookups, hit_rate, stage_evals) = match served {
            Some(s) => (
                s.lookups as f64 / s.frames.max(1) as f64,
                s.hits as f64 / s.lookups.max(1) as f64,
                s.stage_evals as f64 / s.frames.max(1) as f64,
            ),
            None => {
                let lookups: u64 = self.facts.iter().map(|f| f.lookups).sum();
                let hits: u64 = self.facts.iter().map(|f| f.hits).sum();
                (
                    self.per_request(lookups as f64),
                    hits as f64 / lookups.max(1) as f64,
                    self.per_request(self.stage_evals as f64),
                )
            }
        };
        report.metric("cache.lookups", "count", lookups, None);
        report.metric("cache.hit_rate", "ratio", hit_rate, None);
        report.metric("stage.evals", "count", stage_evals, None);
        let (frame_p50_us, transport_ms) =
            served.map_or((0.0, 0.0), |s| (s.frame_p50_us, s.rtt_ms - s.frame_ms));
        report.metric("serve.frame_p50_us", "us", frame_p50_us, None);
        report.metric("serve.transport_ms", "ms", transport_ms, None);
        report.metric("trace_overhead_frac", "ratio", self.overhead, None);
    }
}
