//! Byte-pins what `tdc explore` and `tdc sweep` print on stdout for
//! checked-in scenarios.
//!
//! The goldens under `tests/data/` are the exact stdout of the `tdc`
//! binary: the exploration of `scenarios/pareto_3d_vs_2d.json` in all
//! three formats (frontier, Eq. 2 baseline ranking and lifetime
//! refinement), and the mixed-axis sweep of
//! `scenarios/mixed_axes.json`. Any change to the sweep engine, the
//! cache, or the renderers that moves a single output byte fails here.
//! Statistics go to stderr and are deliberately not pinned.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the `tdc` binary and returns its stdout, failing on a
/// non-zero exit.
fn tdc(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("tdc spawns");
    assert!(
        output.status.success(),
        "tdc {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

fn assert_golden(args: &[&str], golden: &str) {
    let path = repo_root().join("crates/cli/tests/data").join(golden);
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = tdc(args);
    if actual != expected {
        let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(golden);
        std::fs::write(&dump, &actual).ok();
        panic!(
            "`tdc {}` drifted from {golden}; actual output written to {}",
            args.join(" "),
            dump.display()
        );
    }
}

#[test]
fn explore_pareto_table_matches_golden() {
    assert_golden(
        &["explore", "scenarios/pareto_3d_vs_2d.json"],
        "explore_pareto_3d_vs_2d.table.txt",
    );
}

#[test]
fn explore_pareto_csv_matches_golden() {
    assert_golden(
        &[
            "explore",
            "scenarios/pareto_3d_vs_2d.json",
            "--format",
            "csv",
        ],
        "explore_pareto_3d_vs_2d.csv",
    );
}

#[test]
fn explore_pareto_json_matches_golden() {
    assert_golden(
        &[
            "explore",
            "scenarios/pareto_3d_vs_2d.json",
            "--format",
            "json",
        ],
        "explore_pareto_3d_vs_2d.json",
    );
}

#[test]
fn sweep_mixed_axes_table_matches_golden() {
    assert_golden(
        &["sweep", "scenarios/mixed_axes.json"],
        "sweep_mixed_axes.table.txt",
    );
}

#[test]
fn explore_golden_is_identical_at_eight_workers() {
    assert_golden(
        &[
            "explore",
            "scenarios/pareto_3d_vs_2d.json",
            "--workers",
            "8",
        ],
        "explore_pareto_3d_vs_2d.table.txt",
    );
}
