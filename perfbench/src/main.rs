//! The repository's end-to-end benchmark: four seeded workloads over the
//! public request path and the `tdc serve` TCP frontend, with a traced
//! mode that splits each request across the layers it passes through.
//! See `perfbench/README.md`.
//!
//! ```text
//! tdc-perfbench --workload <sweep_cold|sweep_reprice|explore_refine|serve_run|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               --tdc <path to the tdc binary> [--work-dir <dir>]
//! ```
//!
//! Prints one record line per workload (provenance, sizes, checks, every
//! metric with median and quartiles) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`.

mod gen;
mod inproc;
mod layers;
mod report;
mod request;
mod served;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase (split in two halves when traced).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Where generated input files (trace CSVs) are written.
    pub work_dir: PathBuf,
    /// Input sizes.
    pub sizes: gen::Sizes,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sweep_cold", "sweep_reprice", "explore_refine", "serve_run"];

/// Runs one named workload.
///
/// # Panics
///
/// Panics on a name outside [`WORKLOADS`].
#[must_use]
pub fn run_workload(name: &str, cfg: &Config, endpoint: &served::Endpoint) -> report::Report {
    match name {
        "sweep_cold" => inproc::run(inproc::Kind::SweepCold, cfg),
        "sweep_reprice" => inproc::run(inproc::Kind::SweepReprice, cfg),
        "explore_refine" => inproc::run(inproc::Kind::ExploreRefine, cfg),
        "serve_run" => served::run(endpoint, cfg),
        other => panic!("unknown workload `{other}`"),
    }
}

struct Args {
    workload: String,
    cfg: Config,
    tdc: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tdc = None;
    let mut work_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--tdc" => tdc = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            // Per seed, so concurrent runs never share input files.
            work_dir: work_dir.join(format!("seed-{}", seed.unwrap_or(0))),
            sizes: gen::Sizes::full(),
        },
        tdc: tdc.ok_or("--tdc is required")?,
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

fn provenance(workload: &str, cfg: &Config) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("workload", report::quote(workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", report::number(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("nproc", nproc.to_string()),
        (
            "commit",
            report::quote(
                &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "toolchain",
            report::quote(
                &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let endpoint = served::Endpoint::Process(args.tdc);
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut lines = Vec::new();
    for name in names {
        let report = run_workload(name, &args.cfg, &endpoint);
        println!("{}", report.record_line(&provenance(name, &args.cfg)));
        lines.push(report.result_line());
    }
    // Result lines last, so a single-workload run ends with its own.
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool, name: &str) -> Config {
        Config {
            seed: 11,
            seconds: 0.4,
            trace,
            work_dir: std::env::temp_dir().join(format!(
                "tdc-perfbench-test-{}-{name}-{trace}",
                std::process::id()
            )),
            sizes: gen::Sizes::tiny(),
        }
    }

    /// tdc-obs recording is process-global: runs must not overlap.
    static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke(name: &str, trace: bool) -> report::Report {
        let _serial = OBS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cfg = tiny(trace, name);
        let report = run_workload(name, &cfg, &served::Endpoint::InProcess);
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert!(report.correct(), "{}", report.record_line(&[]));
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0);
        report
    }

    const END_TO_END: [&str; 7] = [
        "setup_s",
        "requests_per_s",
        "points_per_s",
        "request_p50_ms",
        "request_p90_ms",
        "cpu_ms_per_request",
        "peak_rss_mb",
    ];

    #[test]
    fn every_workload_passes_its_oracle_untraced() {
        for name in WORKLOADS {
            let report = smoke(name, false);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END, "{name}");
            assert!(report.metrics.iter().all(|m| m.value > 0.0), "{name}");
        }
    }

    #[test]
    fn every_workload_passes_its_oracle_and_layer_sum_traced() {
        let mut expected: Option<Vec<&str>> = None;
        for name in WORKLOADS {
            let report = smoke(name, true);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            // Every traced run prints the same per-layer metric set.
            assert_eq!(
                *expected.get_or_insert_with(|| names.clone()),
                names,
                "{name}"
            );
            assert!(report.checks.iter().any(|(c, ok)| *c == "layer_sum" && *ok));
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_runs_print() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let spec = tdc_cli::JsonValue::parse(&spec).expect("valid json");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(tdc_cli::JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(tdc_cli::JsonValue::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("workloads"), WORKLOADS);
        let report = smoke("sweep_reprice", true);
        let printed: Vec<String> = report.metrics.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names("per_layer"), printed);
    }
}
