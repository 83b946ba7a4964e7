//! The `serve_run` workload: a closed loop of TCP clients against a
//! spawned `tdc serve --listen 127.0.0.1:0`.
//!
//! Each client sends one `run` frame, waits for its response, and sends
//! the next, drawing frames from a shared-geometry pool whose use-phase
//! inputs vary. A warm-up connection sends every pool entry once before
//! timing starts, so the timed frames find their artifacts warm and the
//! time goes to frame parsing, schema, registry construction, context
//! build, rendering and transport.

use crate::gen::{self, Rng};
use crate::layers;
use crate::report::{Facts, LayerTotals, Report, ServedFigures};
use crate::stats::{self, Completion, CpuSample};
use crate::Config;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tdc_cli::serve::{serve, serve_listener};
use tdc_cli::{JsonValue, RequestKind, Scenario};
use tdc_core::service::ScenarioSession;
use tdc_obs::span;

/// Concurrent closed-loop clients: one per core of the 2-CPU recording
/// host.
const CLIENTS: usize = 2;

/// Frames a traced server may answer in total. The server records a
/// `serve.frame` span per frame and tdc-obs stops recording (and feeding
/// the frame histogram) at `MAX_SPANS`; the traced phase stops short of
/// that.
const TRACED_FRAME_CAP: u64 = 60_000;

/// Frames of the traced phase re-enacted in-process for the layer split.
const REENACTED_FRAMES: usize = 2_000;

/// How the server under test runs.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A spawned `tdc` binary: what the benchmark measures.
    Process(PathBuf),
    /// `serve_listener` on a thread of this process — the function `tdc
    /// serve --listen` calls — for the benchmark's own tests.
    InProcess,
}

/// A running server.
struct Server {
    addr: SocketAddr,
    pid: u32,
    child: Option<Child>,
    drain: Option<std::thread::JoinHandle<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(endpoint: &Endpoint, traced: bool) -> Result<Self, String> {
        match endpoint {
            Endpoint::Process(tdc) => {
                let mut child = Command::new(tdc)
                    .args(["serve", "--listen", "127.0.0.1:0"])
                    .env("TDC_OBS", if traced { "1" } else { "0" })
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot spawn `{}`: {e}", tdc.display()))?;
                let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
                let mut line = String::new();
                let addr = stderr.read_line(&mut line).ok().and_then(|_| {
                    line.trim()
                        .strip_prefix("serve listening on ")?
                        .parse()
                        .ok()
                });
                let pid = child.id();
                // The server logs per-connection stats lines; keep the
                // pipe drained so it never blocks on a full buffer.
                let drain = std::thread::spawn(move || {
                    let mut sink = Vec::new();
                    let _ = stderr.read_to_end(&mut sink);
                });
                let mut server = Self {
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                    pid,
                    child: Some(child),
                    drain: Some(drain),
                    thread: None,
                };
                match addr {
                    Some(addr) => {
                        server.addr = addr;
                        Ok(server)
                    }
                    None => {
                        server.stop();
                        Err(format!("server did not report its address: {line:?}"))
                    }
                }
            }
            Endpoint::InProcess => {
                if traced {
                    tdc_obs::set_enabled(true);
                }
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let thread = std::thread::spawn(move || {
                    let session = ScenarioSession::serial();
                    let mut sink = Vec::new();
                    let _ = serve_listener(&session, listener, 1, &mut sink);
                });
                Ok(Self {
                    addr,
                    pid: std::process::id(),
                    child: None,
                    drain: None,
                    thread: Some(thread),
                })
            }
        }
    }

    /// Asks the server to stop (server-scope shutdown) and waits for it.
    fn stop(&mut self) {
        let _ = TcpStream::connect(self.addr).and_then(|stream| {
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            writeln!(
                writer,
                "{{\"id\": 0, \"command\": \"shutdown\", \"scope\": \"server\"}}"
            )?;
            writer.flush()?;
            let mut ack = String::new();
            reader.read_line(&mut ack).map(|_| ())
        });
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
            tdc_obs::set_enabled(false);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection speaking the frame protocol, a line at a time.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn call(&mut self, frame: &str) -> std::io::Result<String> {
        // One write per frame: with TCP_NODELAY a separate newline
        // would go out as a second segment.
        self.writer.write_all(format!("{frame}\n").as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn close(mut self, id: u64) {
        let _ = self.call(&format!("{{\"id\": {id}, \"command\": \"shutdown\"}}"));
    }
}

fn ok_prefix(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,")
}

/// What one closed-loop client saw.
struct ClientLog {
    completions: Vec<Completion>,
    /// Responses that were not an ok frame for the frame's id.
    bad: u64,
    /// Seeded reservoir of `(frame id, response)` for the oracle.
    kept: Vec<(u64, String)>,
    rtt_ms_sum: f64,
}

fn client_loop(
    addr: SocketAddr,
    cfg: &Config,
    pool: &[String],
    client: usize,
    stop: &AtomicBool,
    frame_budget: u64,
) -> std::io::Result<ClientLog> {
    let mut conn = Conn::open(addr)?;
    let mut rng = Rng::new(cfg.seed, 0xB00 + client as u64);
    let cap = cfg.sizes.oracle_frames;
    let mut log = ClientLog {
        completions: Vec::new(),
        bad: 0,
        kept: Vec::with_capacity(cap),
        rtt_ms_sum: 0.0,
    };
    let mut n = 1;
    while !stop.load(Ordering::Relaxed) && n <= frame_budget {
        let frame = gen::serve_frame(cfg.seed, pool, client, n);
        let t0 = Instant::now();
        let response = conn.call(&frame)?;
        let at = Instant::now();
        let latency_ms = at.duration_since(t0).as_secs_f64() * 1e3;
        log.rtt_ms_sum += latency_ms;
        log.bad += u64::from(!response.starts_with(&ok_prefix(n)));
        log.completions.push(Completion {
            at,
            latency_ms,
            points: 1,
        });
        let slot = if log.kept.len() < cap {
            Some(log.kept.len())
        } else {
            usize::try_from(rng.next_u64() % n)
                .ok()
                .filter(|&j| j < cap)
        };
        match slot {
            Some(s) if s == log.kept.len() => log.kept.push((n, response)),
            Some(s) => log.kept[s] = (n, response),
            None => {}
        }
        n += 1;
    }
    conn.close(n);
    Ok(log)
}

/// Everything one timed serve phase measured.
struct Phase {
    logs: Vec<ClientLog>,
    cpu: Vec<CpuSample>,
    wall_s: f64,
    peak_rss_mb: f64,
    /// Metrics frames before and after the timed loop.
    metrics: Option<(JsonValue, JsonValue)>,
}

fn metrics_frame(conn: &mut Conn) -> Option<JsonValue> {
    let line = conn.call("{\"id\": 0, \"op\": \"metrics\"}").ok()?;
    JsonValue::parse(&line).ok()?.get("metrics").cloned()
}

/// Starts a server, warms it with the pool, runs the closed loop for
/// `duration` (or `frame_budget` frames per client), and stops it.
fn phase(
    endpoint: &Endpoint,
    cfg: &Config,
    pool: &[String],
    duration: Duration,
    traced: bool,
    frame_budget: u64,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut server = Server::start(endpoint, traced)?;
    let io = |e: std::io::Error| e.to_string();
    let mut control = Conn::open(server.addr).map_err(io)?;
    for (k, scenario) in pool.iter().enumerate() {
        let id = k as u64 + 1;
        let response = control
            .call(&format!(
                "{{\"id\": {id}, \"command\": \"run\", \"scenario\": {scenario}}}"
            ))
            .map_err(io)?;
        report.attempted += 1;
        if !response.starts_with(&ok_prefix(id)) {
            report.fail(format!("warm-up frame {id} failed: {response}"));
        }
    }
    let before = if traced {
        metrics_frame(&mut control)
    } else {
        None
    };

    let stop = AtomicBool::new(false);
    let slice = duration / crate::inproc::SLICES;
    let start = Instant::now();
    let (logs, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = &stop;
                let addr = server.addr;
                scope.spawn(move || client_loop(addr, cfg, pool, c, stop, frame_budget))
            })
            .collect();
        let mut cpu = vec![CpuSample {
            at: start,
            cpu_ms: stats::cpu_ms(server.pid).unwrap_or(0.0),
        }];
        for k in 1..=crate::inproc::SLICES {
            let boundary = start + slice * k;
            while Instant::now() < boundary && !handles.iter().all(|h| h.is_finished()) {
                let left = boundary.saturating_duration_since(Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(2)));
            }
            cpu.push(CpuSample {
                at: Instant::now(),
                cpu_ms: stats::cpu_ms(server.pid).unwrap_or(0.0),
            });
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let logs: Vec<std::io::Result<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect();
        (logs, cpu)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let logs = logs
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    let after = if traced {
        metrics_frame(&mut control)
    } else {
        None
    };
    let peak_rss_mb = stats::peak_rss_mb(server.pid).unwrap_or(0.0);
    control.close(0);
    server.stop();
    Ok(Phase {
        logs,
        cpu,
        wall_s,
        peak_rss_mb,
        metrics: before.zip(after),
    })
}

/// Set-up: spawn a server, connect, and wait for the answer to one
/// frame; returns the elapsed seconds.
fn setup_once(endpoint: &Endpoint, cfg: &Config, pool: &[String], report: &mut Report) -> f64 {
    let t0 = Instant::now();
    let frame = gen::serve_frame(cfg.seed, pool, 0, 1);
    let outcome = Server::start(endpoint, false).and_then(|mut server| {
        let result = Conn::open(server.addr).and_then(|mut c| {
            let response = c.call(&frame)?;
            let elapsed = t0.elapsed().as_secs_f64();
            c.close(2);
            Ok((response, elapsed))
        });
        server.stop();
        result.map_err(|e| e.to_string())
    });
    report.attempted += 1;
    match outcome {
        Ok((response, elapsed)) => {
            if !response.starts_with(&ok_prefix(1)) {
                report.fail(format!("set-up frame failed: {response}"));
            }
            elapsed
        }
        Err(e) => {
            report.fail(format!("set-up failed: {e}"));
            t0.elapsed().as_secs_f64()
        }
    }
}

/// The oracle: each client's kept responses must equal, byte for byte,
/// what an in-process `serve` replay of those same frames answers.
/// Returns (frames checked, mismatches).
fn check(cfg: &Config, pool: &[String], logs: &[ClientLog]) -> (usize, u64) {
    let mut checked = 0;
    let mut mismatched = 0;
    for (client, log) in logs.iter().enumerate() {
        let mut kept = log.kept.clone();
        kept.sort_unstable_by_key(|(n, _)| *n);
        let mut input = String::new();
        for (n, _) in &kept {
            input.push_str(&gen::serve_frame(cfg.seed, pool, client, *n));
            input.push('\n');
        }
        let mut out = Vec::new();
        let mut sink = Vec::new();
        let session = ScenarioSession::serial();
        if serve(&session, input.as_bytes(), &mut out, &mut sink, 1).is_err() {
            mismatched += kept.len() as u64;
            continue;
        }
        let replay = String::from_utf8_lossy(&out);
        let mut lines = replay.lines();
        for (_, got) in &kept {
            checked += 1;
            mismatched += u64::from(lines.next() != Some(got.as_str()));
        }
    }
    (checked, mismatched)
}

/// One frame down the server's path — frame parse, scenario schema,
/// registry, build, evaluate, response frame — in-process with a span
/// around each call, for the per-layer split.
fn reenact(session: &ScenarioSession, line: &str) -> Result<String, String> {
    let _root = span(layers::REQUEST);
    let tree = {
        let _s = span(layers::JSON);
        JsonValue::parse(line).map_err(|e| e.to_string())?
    };
    let scenario = {
        let _s = span(layers::SCHEMA);
        let doc = tree.get("scenario").ok_or("frame without scenario")?;
        Scenario::from_value(doc).map_err(|e| e.to_string())?
    };
    {
        let _s = span(layers::REGISTRY);
        scenario.registry().map_err(|e| e.to_string())?;
    }
    let request = {
        let _s = span(layers::BUILD);
        scenario
            .build_request(RequestKind::Run)
            .map_err(|e| e.to_string())?
    };
    let evaluated = {
        let _s = span(layers::EVALUATE);
        session.evaluate(&request).map_err(|e| e.to_string())?
    };
    let _s = span(layers::RENDER);
    Ok(JsonValue::Object(vec![
        (
            "id".to_owned(),
            tree.get("id").cloned().unwrap_or(JsonValue::Null),
        ),
        ("ok".to_owned(), JsonValue::Bool(true)),
        ("command".to_owned(), JsonValue::String("run".to_owned())),
        (
            "report".to_owned(),
            tdc_cli::report::response_document(&scenario.name, &evaluated.response),
        ),
    ])
    .render_compact())
}

fn num(metrics: &JsonValue, name: &str, field: Option<&str>) -> f64 {
    let v = metrics.get(name);
    let v = match field {
        Some(f) => v.and_then(|h| h.get(f)),
        None => v,
    };
    v.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

const STAGE_HISTOGRAMS: [&str; 5] = [
    "stage.physical.ns",
    "stage.yield.ns",
    "stage.embodied.ns",
    "stage.power.ns",
    "stage.operational.ns",
];

/// The traced half: live-server figures from the metrics frames, and
/// the in-frame layer split from re-enacting kept frames on a warm
/// in-process session.
fn traced_layers(
    cfg: &Config,
    pool: &[String],
    untraced: &Phase,
    traced: &Phase,
    report: &mut Report,
) {
    let frames: u64 = traced.logs.iter().map(|l| l.completions.len() as u64).sum();
    let rtt_sum: f64 = traced.logs.iter().map(|l| l.rtt_ms_sum).sum();
    let mut figures = ServedFigures {
        frames,
        #[allow(clippy::cast_precision_loss)]
        rtt_ms: rtt_sum / frames.max(1) as f64,
        ..ServedFigures::default()
    };
    if let Some((a, b)) = &traced.metrics {
        let d = |name: &str, field: Option<&str>| num(b, name, field) - num(a, name, field);
        let count = d("serve.frame.ns", Some("count"));
        figures.frame_ms = d("serve.frame.ns", Some("sum")) / count.max(1.0) / 1e6;
        figures.frame_p50_us = num(b, "serve.frame.ns", Some("p50")) / 1e3;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            let hits = d("cache.hits", None).max(0.0) as u64;
            figures.hits = hits;
            figures.lookups = hits + d("cache.misses", None).max(0.0) as u64;
            figures.stage_evals = STAGE_HISTOGRAMS
                .iter()
                .map(|h| d(h, Some("count")).max(0.0) as u64)
                .sum();
        }
    } else {
        report.fail("traced server answered no metrics frame".to_owned());
    }

    let session = ScenarioSession::serial();
    for scenario in pool {
        let _ = reenact(
            &session,
            &format!("{{\"id\": 0, \"scenario\": {scenario}}}"),
        );
    }
    let mut replay: Vec<(usize, u64, &str)> = traced
        .logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| log.kept.iter().map(move |(n, r)| (c, *n, r.as_str())))
        .collect();
    replay.truncate(REENACTED_FRAMES);
    let mut totals = LayerTotals::default();
    tdc_obs::reset();
    tdc_obs::set_enabled(true);
    let mut differing = 0u64;
    for (client, n, response) in &replay {
        let frame = gen::serve_frame(cfg.seed, pool, *client, *n);
        let result = reenact(&session, &frame);
        let spans = tdc_obs::take_spans();
        differing += u64::from(result.as_deref() != Ok(*response));
        let facts = Facts {
            plan_points: 1,
            registry_built: true,
            report_bytes: response.len() as u64,
            ..Facts::default()
        };
        totals.add(facts, layers::attribute(&spans, false), false);
    }
    tdc_obs::set_enabled(false);
    tdc_obs::reset();
    report
        .checks
        .push(("reenacted_frames_match", differing == 0));
    report.notes.push(format!(
        "re-enacted {} frames in-process, {differing} differ from the server's bytes",
        replay.len()
    ));
    let rate = |p: &Phase| {
        let n: usize = p.logs.iter().map(|l| l.completions.len()).sum();
        (n, p.wall_s)
    };
    let (u, us) = rate(untraced);
    let (t, ts) = rate(traced);
    totals.set_overhead(u, us, t, ts);
    totals.finish(report, Some(figures));
}

/// Runs `serve_run` against `endpoint` and reports it.
#[must_use]
pub fn run(endpoint: &Endpoint, cfg: &Config) -> Report {
    let mut report = Report::default();
    let pool = gen::serve_pool(cfg.seed, &cfg.sizes);
    let setup = stats::spaced(cfg.sizes.setup_reps, cfg.sizes.setup_spacing, || {
        setup_once(endpoint, cfg, &pool, &mut report)
    });

    let seconds = Duration::from_secs_f64(cfg.seconds);
    let timed = if cfg.trace { seconds / 2 } else { seconds };
    let steal = stats::steal_ticks();
    let untraced = phase(endpoint, cfg, &pool, timed, false, u64::MAX, &mut report);
    report.steal(stats::steal_share(steal, stats::steal_ticks()));
    let untraced = match untraced {
        Ok(p) => p,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("serve phase failed: {e}"));
            return report;
        }
    };
    let mut traced = None;
    if cfg.trace {
        let budget = TRACED_FRAME_CAP.saturating_sub(pool.len() as u64 + 2) / CLIENTS as u64;
        match phase(endpoint, cfg, &pool, timed, true, budget, &mut report) {
            Ok(p) => {
                traced_layers(cfg, &pool, &untraced, &p, &mut report);
                traced = Some(p);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("traced serve phase failed: {e}"));
            }
        }
    } else {
        let completions: Vec<Completion> = untraced
            .logs
            .iter()
            .flat_map(|l| l.completions.iter().copied())
            .collect();
        let tp = stats::throughput(&completions, &untraced.cpu);
        report.end_to_end(&setup, &tp, untraced.peak_rss_mb);
    }

    let mut checked = 0;
    for p in std::iter::once(&untraced).chain(traced.as_ref()) {
        let bad: u64 = p.logs.iter().map(|l| l.bad).sum();
        let done: usize = p.logs.iter().map(|l| l.completions.len()).sum();
        report.absorb(done, 0, Vec::new());
        report.failed += bad;
        let (c, mismatched) = check(cfg, &pool, &p.logs);
        checked += c;
        report.failed += mismatched;
    }
    report
        .notes
        .push(format!("oracle checked={checked} frames"));
    report.size("clients", CLIENTS as f64);
    report.size("pool", pool.len() as f64);
    report.size("setup_reps", cfg.sizes.setup_reps as f64);
    report
}
