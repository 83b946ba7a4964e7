//! Every stats sink of one `tdc serve` process renders the same hit/miss
//! ledger: the `stats` frame, the stderr summary line, and the
//! `{"op": "metrics"}` frame must report identical hits and lookups.
//!
//! The stream sweeps one plan twice on one session — France, then
//! Taiwan — so the second sweep answers its embodied chain from the
//! engine's stage columns. Those column hits must reach every sink,
//! not just the per-request stats. The test drives the real binary in
//! its own process, so no other test can touch the global metric
//! gauges between the publish and the read.

use std::io::Write as _;
use std::process::{Command, Stdio};
use tdc_cli::JsonValue;

const PLAN: &str = r#""workload": {"throughput_tops": 254, "active_hours": 4745, "average_utilization": 0.15}, "sweep": {"gate_count": 17e9, "nodes_nm": [7, 5], "technologies": ["2d", "hybrid", "micro"], "efficiency_tops_per_watt": 2.74}"#;

fn sweep_frame(id: u32, region: &str) -> String {
    format!(
        r#"{{"id": {id}, "command": "sweep", "scenario": {{"name": "sinks", {PLAN}, "context": {{"use_region": "{region}"}}}}}}"#
    )
}

fn number(doc: &JsonValue, key: &str) -> u64 {
    let value = doc
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("`{key}` missing"));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        value as u64
    }
}

/// The integer value of a `key=value` token on a stderr line.
fn token(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no `{key}=` in {line}"))
        .parse()
        .expect("integer token")
}

#[test]
fn stats_frame_stderr_line_and_metrics_frame_agree_after_column_hits() {
    let input = [
        sweep_frame(1, "france"),
        sweep_frame(2, "taiwan"),
        r#"{"id": 3, "command": "stats"}"#.to_owned(),
        r#"{"id": 4, "op": "metrics"}"#.to_owned(),
        r#"{"id": 5, "command": "shutdown"}"#.to_owned(),
    ]
    .join("\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tdc"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tdc serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(format!("{input}\n").as_bytes())
        .expect("frames written");
    let output = child.wait_with_output().expect("tdc serve exits");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let frames: Vec<JsonValue> = stdout
        .lines()
        .map(|l| JsonValue::parse(l).expect("a JSON frame"))
        .collect();
    assert_eq!(frames.len(), 5, "{stdout}");

    let stats = frames[2].get("stats").expect("stats frame");
    let (hits, lookups) = (number(stats, "hits"), number(stats, "lookups"));
    assert!(hits > 0, "the second sweep answers from columns: {stats:?}");

    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("serve "))
        .expect("serve summary line");
    assert_eq!(token(line, "hits"), hits, "{line}");
    assert_eq!(token(line, "lookups"), lookups, "{line}");

    let metrics = frames[3].get("metrics").expect("metrics frame");
    assert_eq!(number(metrics, "cache.hits"), hits, "metrics frame hits");
    assert_eq!(
        number(metrics, "cache.hits") + number(metrics, "cache.misses"),
        lookups,
        "metrics frame lookups"
    );
}
