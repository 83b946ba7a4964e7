//! Error-path coverage for the registry/pack plumbing as the CLI
//! exercises it: unknown model names in scenario files, malformed
//! pack JSON, derating-expression parse failures, and duplicate
//! registrations must all fail with messages that name the file,
//! path, and (for parse errors) the line/column — never a panic and
//! never a silently ignored entry.

use tdc_cli::packs::check_packs;
use tdc_cli::Scenario;
use tdc_registry::ModelKind;

/// Creates a fresh per-test temp dir and writes `files` into it.
fn temp_dir_with(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tdc-packs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, content) in files {
        std::fs::write(dir.join(name), content).unwrap();
    }
    dir
}

fn checked_in_pack() -> String {
    format!(
        "{}/../../scenarios/packs/example_node.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn unknown_model_names_error_at_build_time_with_path_and_hint() {
    let scenario = Scenario::parse(
        r#"{"name": "x", "design": {"preset": "epyc-7452"},
            "context": {"die_yield": "wishful"}}"#,
    )
    .unwrap();
    let err = scenario.build_context().unwrap_err().to_string();
    assert!(err.contains("context.die_yield"), "{err}");
    assert!(
        err.contains("unknown yield model `wishful` (known: paper, poisson, murphy)"),
        "{err}"
    );

    let scenario = Scenario::parse(
        r#"{"name": "x", "design": {"preset": "epyc-7452"},
            "context": {"power_model": "frobnicate"}}"#,
    )
    .unwrap();
    let err = scenario.build_context().unwrap_err().to_string();
    assert!(err.contains("context.power_model"), "{err}");
    assert!(err.contains("unknown power model `frobnicate`"), "{err}");

    let scenario = Scenario::parse(r#"{"name": "x", "design": {"preset": "warp-core"}}"#).unwrap();
    let err = scenario.build_design().unwrap_err().to_string();
    assert!(err.contains("design.preset"), "{err}");
    assert!(
        err.contains("unknown preset `warp-core` (try `tdc scenarios` for the list)"),
        "{err}"
    );
}

#[test]
fn malformed_pack_json_names_the_file_line_and_column() {
    let dir = temp_dir_with(
        "badjson",
        &[("broken.json", "{\"pack\": \"x\",\n  \"nodes\": [")],
    );
    let file = dir.join("broken.json").display().to_string();
    let err = check_packs(std::slice::from_ref(&file)).unwrap_err();
    assert!(err.contains("broken.json"), "{err}");
    assert!(err.contains("line"), "{err}");
    assert!(err.contains("column"), "{err}");
    assert!(err.contains("1 of 1 pack file failed validation"), "{err}");

    // The same file referenced from a scenario's `packs` block fails
    // the build with the `packs[i]` path and the same diagnostics.
    let scenario = Scenario::parse(&format!(
        r#"{{"name": "x", "design": {{"preset": "epyc-7452"}}, "packs": [{:?}]}}"#,
        file
    ))
    .unwrap();
    let err = scenario.build_context().unwrap_err().to_string();
    assert!(err.contains("packs[0]"), "{err}");
    assert!(err.contains("line"), "{err}");
}

#[test]
fn expression_parse_errors_name_the_entry_and_column() {
    let dir = temp_dir_with(
        "badexpr",
        &[(
            "pack.json",
            r#"{"pack": "bad-expr", "nodes": [
                {"name": "n7", "derive": {"beta": "1 +* 2"}}
            ]}"#,
        )],
    );
    let err = check_packs(&[dir.join("pack.json").display().to_string()]).unwrap_err();
    assert!(err.contains("nodes[0].derive.beta"), "{err}");
    assert!(err.contains("expression error at column"), "{err}");
}

#[test]
fn unknown_parameters_and_bad_bases_name_their_fields() {
    let dir = temp_dir_with(
        "badfields",
        &[
            (
                "param.json",
                r#"{"pack": "p", "nodes": [{"name": "n7", "params": {"betta": 551}}]}"#,
            ),
            (
                "base.json",
                r#"{"pack": "b", "nodes": [{"name": "x", "base": "n6"}]}"#,
            ),
        ],
    );
    let err = check_packs(&[dir.join("param.json").display().to_string()]).unwrap_err();
    assert!(err.contains("nodes[0].params.betta"), "{err}");
    let err = check_packs(&[dir.join("base.json").display().to_string()]).unwrap_err();
    assert!(err.contains("nodes[0].base"), "{err}");
    assert!(err.contains("unknown process node `n6`"), "{err}");
}

#[test]
fn duplicate_names_are_rejected_within_and_across_packs() {
    let dir = temp_dir_with(
        "dups",
        &[
            (
                "twice.json",
                r#"{"pack": "d", "nodes": [
                    {"name": "glacier", "base": "n7", "params": {"beta": 600}},
                    {"name": "glacier", "base": "n7", "params": {"beta": 700}}
                ]}"#,
            ),
            (
                "one.json",
                r#"{"pack": "one", "nodes": [{"name": "glacier", "base": "n7"}]}"#,
            ),
            (
                "two.json",
                r#"{"pack": "two", "nodes": [{"name": "glacier", "base": "n5"}]}"#,
            ),
        ],
    );
    // Within one pack: the second entry collides with the first.
    let err = check_packs(&[dir.join("twice.json").display().to_string()]).unwrap_err();
    assert!(err.contains("duplicate"), "{err}");

    // Across packs: a scenario loading both gets a duplicate error
    // attributed to the second file in the `packs` array.
    let scenario_text =
        r#"{"name": "x", "design": {"preset": "epyc-7452"}, "packs": ["one.json", "two.json"]}"#;
    let scenario = Scenario::parse(scenario_text)
        .unwrap()
        .with_base_dir(Some(&dir));
    let err = scenario.build_context().unwrap_err().to_string();
    assert!(err.contains("packs[1]"), "{err}");
    assert!(
        err.contains("duplicate") || err.contains("already"),
        "{err}"
    );
}

#[test]
fn scenario_packs_block_loads_relative_to_the_scenario_file() {
    let pack = std::fs::read_to_string(checked_in_pack()).unwrap();
    let dir = temp_dir_with("roundtrip", &[("node_pack.json", &pack)]);
    let scenario = Scenario::parse(
        r#"{"name": "x", "design": {"preset": "epyc-7452"}, "packs": ["node_pack.json"]}"#,
    )
    .unwrap()
    .with_base_dir(Some(&dir));

    let registry = scenario.registry().unwrap();
    let n7 = registry
        .list(Some(ModelKind::Node))
        .into_iter()
        .find(|m| m.name == "n7")
        .expect("n7 listed");
    assert_eq!(n7.provenance.to_string(), "pack `example-node`");

    // The pack restates the shipped values, so the context it builds
    // prices identically to the no-pack context.
    let baseline = Scenario::parse(r#"{"name": "x", "design": {"preset": "epyc-7452"}}"#).unwrap();
    assert_eq!(
        format!("{:?}", scenario.build_context().unwrap()),
        format!("{:?}", baseline.build_context().unwrap()),
    );
}

#[test]
fn packs_check_accepts_the_checked_in_example() {
    let out = check_packs(&[checked_in_pack()]).unwrap();
    assert!(out.starts_with("ok "), "{out}");
    assert!(
        out.contains("pack `example-node` (1 node, 0 technologies)"),
        "{out}"
    );
}

#[test]
fn packless_scenarios_share_one_registry_and_packs_stay_private() {
    const PLAIN: &str = r#"{"name": "x", "design": {"preset": "epyc-7452"}}"#;
    let a = Scenario::parse(PLAIN).unwrap();
    let b = Scenario::parse(PLAIN).unwrap();
    let shared = a.registry().unwrap();
    assert!(std::ptr::eq(shared, b.registry().unwrap()));

    let dir = temp_dir_with(
        "shared",
        &[(
            "slow.json",
            r#"{"pack": "slow", "nodes": [
                {"name": "n7-slow", "base": "n7",
                 "derive": {"energy_per_area_kwh_per_cm2": "base * 1.5"}}
            ]}"#,
        )],
    );
    let packed = Scenario::parse(
        r#"{"name": "x", "sweep": {"gate_count": 1e9, "nodes": ["n7-slow"]},
            "packs": ["slow.json"]}"#,
    )
    .unwrap()
    .with_base_dir(Some(&dir));
    let private = packed.registry().unwrap();
    assert!(private.resolve_node("n7-slow").is_ok());
    assert!(!std::ptr::eq(private, shared));
    packed.build_sweep().unwrap();

    // The same name without the pack fails exactly as it does in a
    // fresh process, whose shared registry no pack has ever touched.
    const UNPACKED: &str = r#"{"name": "x",
        "workload": {"name": "w", "throughput_tops": 254, "active_hours": 4745,
                     "average_utilization": 0.15},
        "sweep": {"gate_count": 1e9, "nodes": ["n7-slow"]}}"#;
    let err = Scenario::parse(UNPACKED)
        .unwrap()
        .build_sweep()
        .unwrap_err()
        .to_string();
    assert!(err.contains("sweep.nodes[0]"), "{err}");
    assert!(
        err.contains("unknown process node `n7-slow` (known: n3, n5, n7,"),
        "{err}"
    );
    let file = dir.join("unpacked.json");
    std::fs::write(&file, UNPACKED).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tdc"))
        .arg("sweep")
        .arg(&file)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        format!("error: {err}")
    );
}
