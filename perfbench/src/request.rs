//! One request down the public path `tdc batch` takes —
//! `JsonValue::parse` → `Scenario::from_value` (together
//! `Scenario::parse`) → `Scenario::registry` →
//! `Scenario::build_request` → `ScenarioSession::evaluate` →
//! `render_response` — with a benchmark span around each call. The
//! spans are inert unless tdc-obs recording is on, so untraced and
//! traced runs make exactly the same calls.

use crate::layers::{BUILD, EVALUATE, JSON, REGISTRY, RENDER, REQUEST, SCHEMA};
use std::path::Path;
use tdc_cli::report::{render_response, OutputFormat};
use tdc_cli::{JsonValue, Scenario};
use tdc_core::service::{EvalRequest, EvalResponse, RequestStats, ScenarioSession};
use tdc_core::CarbonModel;
use tdc_obs::span;

/// A completed request.
pub struct Done {
    /// The rendered report (what `tdc batch` prints for the file).
    pub output: String,
    /// Design points it priced: plan points for a sweep; plan points
    /// times (1 + refinement evaluations) for an exploration; 1 for a
    /// single run.
    pub points: u64,
    /// Whether it was an exploration.
    pub explore: bool,
    /// The elaborated request (kept for the lifecycle oracle).
    pub request: EvalRequest,
    /// The unrendered response.
    pub response: EvalResponse,
    /// Its cache accounting.
    pub stats: RequestStats,
    /// The scenario, held (never read) so its registry stays alive
    /// until the next request's can be told apart from it (see
    /// [`Done::registry_addr`]).
    #[allow(dead_code)]
    pub scenario: Scenario,
    /// Address of the registry the scenario resolved through. Two live
    /// scenarios share an address only if they share one registry, so
    /// a differing address means the request built its own.
    pub registry_addr: usize,
}

/// Runs one scenario document through the public request path.
/// Relative `trace`/`packs` paths resolve against `base_dir`.
///
/// # Errors
///
/// Any parse, schema, build or model error, as its message.
pub fn run(session: &ScenarioSession, text: &str, base_dir: &Path) -> Result<Done, String> {
    let _root = span(REQUEST);
    let tree = {
        let _s = span(JSON);
        JsonValue::parse(text).map_err(|e| e.to_string())?
    };
    let scenario = {
        let _s = span(SCHEMA);
        Scenario::from_value(&tree).map_err(|e| e.to_string())?
    }
    .with_base_dir(Some(base_dir));
    let registry_addr = {
        let _s = span(REGISTRY);
        std::ptr::from_ref(scenario.registry().map_err(|e| e.to_string())?) as usize
    };
    let request = {
        let _s = span(BUILD);
        scenario
            .build_request(scenario.infer_request_kind())
            .map_err(|e| e.to_string())?
    };
    let evaluated = {
        let _s = span(EVALUATE);
        session.evaluate(&request).map_err(|e| e.to_string())?
    };
    let output = {
        let _s = span(RENDER);
        render_response(&scenario.name, &evaluated.response, OutputFormat::Table)
    };
    let (points, explore) = match &evaluated.response {
        EvalResponse::Sweep(result) => (result.stats().points as u64, false),
        EvalResponse::Explore(result) => {
            let plan = result.stats().points as u64;
            let refinements = result.report().refine.as_ref().map_or(0, |r| r.evaluations);
            (plan * (1 + refinements as u64), true)
        }
        _ => (1, false),
    };
    Ok(Done {
        output,
        points,
        explore,
        request,
        response: evaluated.response,
        stats: evaluated.stats,
        scenario,
        registry_addr,
    })
}

/// A request the oracle replays after the timed phase.
pub struct Sample {
    /// The scenario document.
    pub text: String,
    /// What the timed run rendered for it.
    pub output: String,
    /// The elaborated request and its response.
    pub request: EvalRequest,
    /// The response the timed run produced.
    pub response: EvalResponse,
}

/// How many ranked entries per sampled response the lifecycle oracle
/// recomputes directly.
const ENTRIES_CHECKED: usize = 6;

/// The correctness oracle of the in-process workloads: each sample is
/// replayed on a fresh serial session and must render the same bytes,
/// and a seeded handful of its ranked entries must equal
/// `CarbonModel::lifecycle` of the same design bit for bit (compared
/// through `Debug`, which prints every `f64` exactly). Returns the
/// number of samples that failed either check, with messages.
#[must_use]
pub fn check(samples: &[Sample], base_dir: &Path, seed: u64) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    for (k, sample) in samples.iter().enumerate() {
        let fresh = ScenarioSession::serial();
        let replay_ok = match run(&fresh, &sample.text, base_dir) {
            Ok(done) => done.output == sample.output,
            Err(e) => {
                notes.push(format!("replay failed: {e}"));
                false
            }
        };
        if !replay_ok {
            notes.push(format!("sample {k}: replayed bytes differ"));
        }
        let entries_ok = lifecycle_matches(sample, seed ^ k as u64);
        if !entries_ok {
            notes.push(format!(
                "sample {k}: entry differs from CarbonModel::lifecycle"
            ));
        }
        failed += u64::from(!(replay_ok && entries_ok));
    }
    (failed, notes)
}

fn lifecycle_matches(sample: &Sample, seed: u64) -> bool {
    let (context, workload) = match &sample.request {
        EvalRequest::Sweep {
            context, workload, ..
        }
        | EvalRequest::Explore {
            context, workload, ..
        } => (context, workload),
        _ => return true,
    };
    let entries: Vec<&tdc_core::sweep::SweepEntry> = match &sample.response {
        EvalResponse::Sweep(result) => result.entries().iter().collect(),
        EvalResponse::Explore(result) => {
            result.report().frontier.iter().map(|f| &f.entry).collect()
        }
        _ => return true,
    };
    if entries.is_empty() {
        return false;
    }
    let model = CarbonModel::new(context.clone());
    let mut rng = crate::gen::Rng::new(seed, 0x900);
    (0..ENTRIES_CHECKED).all(|_| {
        let entry = entries[rng.below(entries.len())];
        model
            .lifecycle(&entry.design, workload)
            .is_ok_and(|report| format!("{report:?}") == format!("{:?}", entry.report))
    })
}
