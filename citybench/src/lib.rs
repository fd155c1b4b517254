//! Whole-stack benchmark for the Caraoke city tier.
//!
//! Three workloads, each run in its own process:
//!
//! * `firehose` — closed-loop backfill of a 2,000-pole synthetic city
//!   through `live` ingest and seal (no log, no serving, no PHY);
//! * `dashboards` — the production path: open-loop 250-pole city, logged
//!   engine, serving hub and one TCP subscriber;
//! * `phy-campus` — closed-loop 32-pole campus through the full reader
//!   pipeline (sim, phy, dsp, core, geom).
//!
//! Every run prints every end-to-end metric; a traced run times each
//! layer's public calls from these files and prints the per-layer metrics.
//! See `README.md` for the metric-to-layer map.

pub mod closed;
pub mod dashboards;
pub mod outcome;
pub mod probes;
pub mod rules;
pub mod stages;
pub mod stats;
pub mod trace;

use outcome::Outcome;
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUPS: usize = 31;

/// The workloads by name.
pub const WORKLOADS: [&str; 3] = ["firehose", "dashboards", "phy-campus"];

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Stream length, s (the dashboards workload sends at least
    /// [`dashboards::MIN_EPOCHS`] epochs).
    pub seconds: f64,
    /// Work directory for pane logs; the caller creates and removes it.
    pub work_dir: PathBuf,
}

/// Runs workload `name` (one of [`WORKLOADS`]).
pub fn run(name: &str, settings: &Settings, trace: bool) -> Option<Outcome> {
    Some(match name {
        "firehose" => closed::firehose(settings, trace),
        "dashboards" => dashboards::dashboards(settings, trace),
        "phy-campus" => closed::phy_campus(settings, trace),
        _ => return None,
    })
}
