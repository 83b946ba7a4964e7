//! Byte-pins the stdout of every paper-reproduction binary.
//!
//! `tests/paper_claims.rs` checks the *shape* of each table and figure
//! (orderings, rough ratios); these goldens pin the exact numbers, so
//! any drift in the model, its defaults, or the renderers fails here.
//! Each golden under `tests/data/<bin>.txt` is the bin's complete
//! stdout. When a change moves numbers on purpose, regenerate the
//! golden with `cargo run -q --release -p tdc-bench --bin <bin> >
//! crates/bench/tests/data/<bin>.txt` and review the diff.

use std::path::PathBuf;
use std::process::Command;

fn assert_golden(bin: &str, exe: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{bin}.txt"));
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let output = Command::new(exe).output().expect("bin spawns");
    assert!(
        output.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    if output.stdout != expected {
        let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}.txt"));
        std::fs::write(&dump, &output.stdout).ok();
        panic!(
            "`{bin}` stdout drifted from {}; actual output written to {}",
            path.display(),
            dump.display()
        );
    }
}

macro_rules! goldens {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_golden(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

goldens!(
    table1,
    table2,
    table3,
    table4,
    table5_decision,
    fig1_lifecycle,
    fig2_params,
    fig4a_epyc,
    fig4b_lakefield,
    fig5a_homogeneous,
    fig5b_heterogeneous,
    sensitivity,
);
