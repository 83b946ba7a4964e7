//! Re-priced sweeps share one plan: two scenario files with the same
//! `sweep` block under different use phases build their requests from
//! one memoized plan, and sharing it never shows in the output.
//!
//! The plan memo is process-wide, so this file holds a single test:
//! no other test in the binary can replace the memoized plan between
//! the two `build_request` calls.

use tdc_cli::report::{render_response, OutputFormat};
use tdc_cli::{RequestKind, Scenario};
use tdc_core::service::{EvalRequest, ScenarioSession};
use tdc_core::sweep::SweepPlan;

fn scenario(region: &str) -> Scenario {
    Scenario::parse(&format!(
        r#"{{
            "name": "reprice",
            "workload": {{
                "name": "inference",
                "throughput_tops": 254,
                "active_hours": 4745,
                "average_utilization": 0.15
            }},
            "context": {{ "use_region": "{region}" }},
            "sweep": {{
                "gate_count": 17e9,
                "nodes_nm": [28, 7, 5],
                "tier_counts": [2, 3],
                "efficiency_tops_per_watt": 2.74
            }}
        }}"#
    ))
    .expect("scenario parses")
}

fn sweep_plan(request: &EvalRequest) -> &SweepPlan {
    match request {
        EvalRequest::Sweep { plan, .. } => plan,
        other => panic!("expected a sweep request, got {other:?}"),
    }
}

fn render(session: &ScenarioSession, scenario: &Scenario, request: &EvalRequest) -> String {
    let evaluated = session.evaluate(request).expect("request evaluates");
    render_response(&scenario.name, &evaluated.response, OutputFormat::Table)
}

#[test]
fn reprices_share_one_plan_and_render_like_fresh_sessions() {
    let scenarios = [scenario("france"), scenario("coal")];
    let requests = scenarios
        .each_ref()
        .map(|s| s.build_request(RequestKind::Sweep).expect("request builds"));
    let (a, b) = (sweep_plan(&requests[0]), sweep_plan(&requests[1]));
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    for (p, q) in a.points().iter().zip(b.points()) {
        assert!(
            std::sync::Arc::ptr_eq(p.design(), q.design()),
            "{}",
            p.label()
        );
    }

    let shared = ScenarioSession::serial();
    let warm: Vec<String> = scenarios
        .iter()
        .zip(&requests)
        .map(|(s, r)| render(&shared, s, r))
        .collect();
    let fresh: Vec<String> = scenarios
        .iter()
        .zip(&requests)
        .map(|(s, r)| render(&ScenarioSession::serial(), s, r))
        .collect();
    // Same name, same sweep: only the use phase tells the two apart,
    // and it must, or the comparison below could not fail.
    assert_ne!(fresh[0], fresh[1]);
    assert_eq!(warm, fresh);
}
