//! Per-layer attribution of a traced request.
//!
//! A traced request records spans from two sources: the benchmark's
//! own `bench.*` spans around each public call on the request path,
//! and the program's existing tdc-obs spans (`sweep.*`, `stage.*`,
//! `trace.ingest`). [`attribute`] turns one request's spans into
//! wall-clock self-times per layer that add up to the request's wall
//! time exactly:
//!
//! * on the request thread, each instant belongs to the innermost open
//!   span (its self time);
//! * while sweep workers on other threads are inside a span, the
//!   instant is split evenly among those workers' innermost spans — the
//!   request thread is only waiting for them then;
//! * a span whose name maps to no layer is charged to the layer of its
//!   nearest mapped ancestor, so spans added inside the program later
//!   keep the sum whole.
//!
//! Whatever the `bench.request` root keeps for itself is time no layer
//! explains: `unattributed_ms`.

use std::collections::BTreeMap;
use tdc_obs::SpanRecord;

/// The benchmark's root span around one whole request.
pub const REQUEST: &str = "bench.request";
/// JSON text → tree (`JsonValue::parse`).
pub const JSON: &str = "bench.json";
/// Tree → scenario (`Scenario::from_value`).
pub const SCHEMA: &str = "bench.schema";
/// `Scenario::registry`.
pub const REGISTRY: &str = "bench.registry";
/// `Scenario::build_request` (context, workload, trace ingest, plan).
pub const BUILD: &str = "bench.build";
/// `ScenarioSession::evaluate`.
pub const EVALUATE: &str = "bench.evaluate";
/// `render_response` (or the serve response frame).
pub const RENDER: &str = "bench.render";

/// The layers self-time is reported for, in report order.
pub const LAYERS: [&str; 14] = [
    "json.parse_ms",
    "scenario.schema_ms",
    "registry.resolve_ms",
    "build.ms",
    "traces.ingest_ms",
    "session.evaluate_ms",
    "explore.self_ms",
    "sweep.self_ms",
    "stage.physical_ms",
    "stage.yield_ms",
    "stage.embodied_ms",
    "stage.power_ms",
    "stage.operational_ms",
    "report.render_ms",
];

/// The layer a span's self-time is charged to, if its name maps to
/// one. `explore` marks an explore request, whose evaluate self-time is
/// the Pareto/ranking/refinement work of `tdc_core::explore`.
fn layer_of(name: &str, explore: bool) -> Option<&'static str> {
    Some(match name {
        REQUEST => "unattributed_ms",
        JSON => "json.parse_ms",
        SCHEMA => "scenario.schema_ms",
        REGISTRY | "pack.load" => "registry.resolve_ms",
        BUILD => "build.ms",
        "trace.ingest" => "traces.ingest_ms",
        EVALUATE if explore => "explore.self_ms",
        EVALUATE => "session.evaluate_ms",
        "sweep.execute_batched" | "sweep.execute" => "sweep.self_ms",
        "stage.physical" => "stage.physical_ms",
        "stage.yield" => "stage.yield_ms",
        "stage.embodied" => "stage.embodied_ms",
        "stage.power" => "stage.power_ms",
        "stage.operational" => "stage.operational_ms",
        RENDER => "report.render_ms",
        _ => return None,
    })
}

/// What one traced request's spans add up to.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Wall time of the `bench.request` root, ns.
    pub wall_ns: u64,
    /// Self-time per layer (including `unattributed_ms`), ns. Sums to
    /// `wall_ns`.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Inclusive wall time of `sweep.execute_batched` spans, ns.
    pub batch_ns: u64,
    /// Inclusive wall time of `sweep.execute` spans, ns.
    pub execute_ns: u64,
    /// `sweep.execute` calls.
    pub execute_calls: u64,
    /// Stage kernel evaluations (`stage.*` spans; they fire on cache
    /// misses only).
    pub stage_evals: u64,
}

/// Attributes one request's spans (everything recorded between two
/// `take_spans` calls around a single request). Returns `None` when no
/// closed `bench.request` root is present.
#[must_use]
pub fn attribute(spans: &[SpanRecord], explore: bool) -> Option<Attribution> {
    let root = spans
        .iter()
        .position(|s| s.name == REQUEST && s.parent.is_none() && s.end_ns > 0)?;
    let (main, start, end) = (spans[root].thread, spans[root].start_ns, spans[root].end_ns);

    // Each span's charged layer: its own, or its nearest mapped
    // ancestor's; foreign-thread roots with no mapped name fall to
    // the root's bucket.
    let mut layer: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        let own = layer_of(s.name, explore);
        let inherited = s.parent.and_then(|p| layer.get(p).copied());
        layer.push(own.or(inherited).unwrap_or("unattributed_ms"));
    }

    let mut out = Attribution {
        wall_ns: end - start,
        ..Attribution::default()
    };
    // Sweep-line over span boundaries. Ends sort before starts at one
    // instant; among starts the longer (enclosing) span goes first,
    // among ends the later-started (enclosed) one.
    let mut events: Vec<(u64, u8, u64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns == 0 || s.end_ns <= start || s.start_ns >= end {
            continue;
        }
        match s.name {
            "sweep.execute_batched" => out.batch_ns += s.duration_ns(),
            "sweep.execute" => {
                out.execute_ns += s.duration_ns();
                out.execute_calls += 1;
            }
            name if name.starts_with("stage.") => out.stage_evals += 1,
            _ => {}
        }
        events.push((s.start_ns.max(start), 1, u64::MAX - s.end_ns, i));
        events.push((s.end_ns.min(end), 0, u64::MAX - s.start_ns, i));
    }
    events.sort_unstable();

    let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut prev = start;
    for (t, kind, _, i) in events {
        if t > prev {
            charge(&stacks, main, &layer, (t - prev) as f64, &mut out.self_ns);
            prev = t;
        }
        let stack = stacks.entry(spans[i].thread).or_default();
        if kind == 1 {
            stack.push(i);
        } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
            stack.remove(pos);
        }
    }
    Some(out)
}

fn charge(
    stacks: &BTreeMap<u64, Vec<usize>>,
    main: u64,
    layer: &[&'static str],
    dt: f64,
    into: &mut BTreeMap<&'static str, f64>,
) {
    let workers: Vec<usize> = stacks
        .iter()
        .filter(|(&thread, _)| thread != main)
        .filter_map(|(_, stack)| stack.last().copied())
        .collect();
    if workers.is_empty() {
        if let Some(&top) = stacks.get(&main).and_then(|s| s.last()) {
            *into.entry(layer[top]).or_default() += dt;
        }
        return;
    }
    #[allow(clippy::cast_precision_loss)]
    let share = dt / workers.len() as f64;
    for top in workers {
        *into.entry(layer[top]).or_default() += share;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: u64, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            thread,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_sum_to_wall_with_parallel_workers() {
        let spans = [
            span(REQUEST, None, 0, 0, 100),
            span(JSON, Some(0), 0, 1, 11),
            span(EVALUATE, Some(0), 0, 11, 91),
            span("sweep.execute_batched", Some(2), 0, 15, 85),
            // Two workers overlap on [20, 40); one alone on [40, 60).
            span("stage.physical", None, 1, 20, 40),
            span("stage.embodied", None, 2, 20, 60),
            span("some.new_span", Some(2), 0, 86, 90),
            span(RENDER, Some(0), 0, 91, 99),
        ];
        let a = attribute(&spans, false).expect("root present");
        let total: f64 = a.self_ns.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{a:?}");
        assert_eq!(a.self_ns["stage.physical_ms"], 10.0);
        assert_eq!(a.self_ns["stage.embodied_ms"], 30.0);
        // 70 ns of batch span minus 40 ns covered by workers.
        assert_eq!(a.self_ns["sweep.self_ms"], 30.0);
        // Evaluate's own 6 ns plus its unmapped child's 4 ns.
        assert_eq!(a.self_ns["session.evaluate_ms"], 10.0);
        assert_eq!(a.self_ns["unattributed_ms"], 2.0);
        assert_eq!((a.batch_ns, a.stage_evals), (70, 2));
    }

    #[test]
    fn explore_requests_charge_evaluate_to_explore() {
        let spans = [
            span(REQUEST, None, 0, 0, 10),
            span(EVALUATE, Some(0), 0, 0, 10),
        ];
        let a = attribute(&spans, true).expect("root present");
        assert_eq!(a.self_ns["explore.self_ms"], 10.0);
        assert!(attribute(&spans[1..], true).is_none());
    }
}
