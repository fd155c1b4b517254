//! A reduced run of each workload: it must pass its own output checks
//! and produce every metric.

use citybench::outcome::{result_line, END_TO_END, PER_LAYER};
use citybench::{run, Settings, WORKLOADS};
use std::path::PathBuf;

fn smoke(workload: &str, trace: bool) {
    let work_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let settings = Settings {
        seed: 5,
        seconds: 0.5,
        work_dir: work_dir.clone(),
    };
    let mut outcome = run(workload, &settings, trace).expect("known workload");
    let _ = std::fs::remove_dir_all(&work_dir);
    assert!(
        outcome.problems.is_empty(),
        "{workload}: {:?}",
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    outcome.per_layer.push(("trace.overhead_pct", 0.0));
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = Vec::new();
    let line = result_line(&outcome, names, &mut problems);
    assert!(problems.is_empty(), "{workload}: {problems:?}");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for (name, _) in END_TO_END.iter().filter(|_| !trace) {
        let v = outcome.value(name).expect("metric present");
        assert!(v > 0.0, "{workload}: {name} = {v}");
    }
}

#[test]
fn firehose_smoke() {
    smoke("firehose", false);
}

#[test]
fn dashboards_smoke() {
    smoke("dashboards", false);
}

#[test]
fn phy_campus_smoke() {
    smoke("phy-campus", false);
}

#[test]
fn traced_phy_campus_smoke() {
    smoke("phy-campus", true);
}

#[test]
fn unknown_workloads_are_refused() {
    assert_eq!(WORKLOADS.len(), 3);
    let settings = Settings {
        seed: 1,
        seconds: 0.1,
        work_dir: std::env::temp_dir(),
    };
    assert!(run("nope", &settings, false).is_none());
}
