//! What a workload run produces, and how it is printed.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// Every end-to-end metric, with its unit; each workload prints all of
/// them (see the README for what each means on each workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("obs_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("delivery_p50_ms", "ms"),
    ("delivery_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit; each traced run prints all of
/// them.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("city.gen_late_p99_ms", "ms"),
    ("city.gen_ns_per_obs", "ns"),
    ("city.report_ms", "ms"),
    ("city.phy_queries_per_report", "ratio"),
    ("phy.synth_us", "us"),
    ("dsp.fft_us", "us"),
    ("core.analyze_us", "us"),
    ("core.aoa_us", "us"),
    ("geom.fix_us", "us"),
    ("live.ingest_ns_per_obs", "ns"),
    ("live.seal_wait_frac", "ratio"),
    ("live.finish_ms", "ms"),
    ("live.seal_lag_p50_ms", "ms"),
    ("live.seal_lag_p99_ms", "ms"),
    ("log.bytes_per_pane", "bytes"),
    ("log.replay_s", "s"),
    ("log.follow_ms", "ms"),
    ("log.recover_s", "s"),
    ("serve.eval_ms", "ms"),
    ("serve.age_p50_ms", "ms"),
    ("serve.age_p99_ms", "ms"),
    ("serve.catchup_frac", "ratio"),
    ("serve.panes_per_frame", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks that failed, one line each (empty when correct).
    pub problems: Vec<String>,
    /// Observations generated.
    pub attempted: u64,
    /// Observations shed, overflow-shed or otherwise not sealed.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values by name (meaningful only from a traced run).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Human-readable notes: tail sample counts and the like.
    pub notes: Vec<String>,
    /// The pinned workload configuration, as a JSON object.
    pub config: String,
    /// The run's merged spans and totals.
    pub tracer: Tracer,
    /// The workload's headline figure, for the tracing-overhead
    /// comparison, and whether higher is better.
    pub headline: (&'static str, f64, bool),
}

impl Outcome {
    /// A run that could not start: incorrect, with no measurements.
    pub fn failed(problem: String, config: String) -> Self {
        Self {
            problems: vec![problem],
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
            config,
            tracer: Tracer::new(false, std::time::Instant::now(), 0),
            headline: ("none", f64::NAN, true),
        }
    }

    /// Looks up a value among the end-to-end and per-layer metrics.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being `names` with their units.
/// A missing or non-finite value makes the result incorrect.
pub fn result_line(
    outcome: &Outcome,
    names: &[(&str, &str)],
    problems: &mut Vec<String>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match outcome.value(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                problems.push(format!("metric {name} is {v}"));
                0.0
            }
            None => {
                problems.push(format!("metric {name} missing"));
                0.0
            }
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
