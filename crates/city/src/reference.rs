//! The reference fold: a small, single-threaded, deliberately unoptimised
//! derivation of per-pane city aggregates, kept as the oracle the online
//! engine (`caraoke-live`) and the pane-log replay are tested against.
//!
//! It spells the canonical order out in the plainest possible way: route
//! every observation to its tracker shard with [`shard_of_bin`],
//! stable-sort each shard by [`canonical_obs_key`] (the stable sort keeps
//! within-report order, which is the engine's `seq` tie-break), and apply
//! one [`TagTracker`] per shard. Derived events land in the observation's
//! pane; report-level segment rows land in the report's pane.
//!
//! [`ReferenceRun::chain`] chains `(pane, fingerprint)` over panes
//! `0..=last`, empty panes included, exactly as the engine does.

use crate::aggregate::{CityAggregates, Fingerprint};
use crate::event::{PoleReport, TagObservation};
use crate::position::resolve_position;
use crate::store::{
    canonical_obs_key, shard_of_bin, AliasStats, DerivedEvent, PoleDirectory, SpeedSource,
    StoreConfig, TagTracker,
};
use crate::synth::FrameSource;
use std::collections::BTreeMap;

/// The result of one reference fold.
#[derive(Debug, Default)]
pub struct ReferenceRun {
    /// Aggregates of every pane that saw a report or an observation.
    pub panes: BTreeMap<u64, CityAggregates>,
    /// The per-shard trackers, in shard order, after the whole fold.
    pub trackers: Vec<TagTracker>,
}

impl ReferenceRun {
    /// Whole-run totals: the merge of every pane.
    pub fn totals(&self) -> CityAggregates {
        let mut out = CityAggregates::new();
        for agg in self.panes.values() {
            out.merge(agg);
        }
        out
    }

    /// The fingerprint chain over panes `0..=last`, empty panes included —
    /// what `LiveCity::fingerprint_chain` reports after `finish`.
    pub fn chain(&self) -> u64 {
        let mut chain = Fingerprint::new();
        let Some(&last) = self.panes.keys().next_back() else {
            return chain.finish();
        };
        let empty = CityAggregates::new();
        for pane in 0..=last {
            chain.write_u64(pane);
            chain.write_u64(self.panes.get(&pane).unwrap_or(&empty).fingerprint());
        }
        chain.finish()
    }

    /// Distinct tags tracked, summed over shards.
    pub fn distinct_tags(&self) -> usize {
        self.trackers.iter().map(TagTracker::distinct_tags).sum()
    }

    /// Alias-upgrade counters, summed over shards.
    pub fn alias_stats(&self) -> AliasStats {
        let mut out = AliasStats::default();
        for tracker in &self.trackers {
            out.merge(&tracker.alias_stats());
        }
        out
    }
}

/// Folds `reports` into per-pane aggregates of width `pane_us`. Report order
/// matters only between observations with equal canonical keys, and then
/// exactly as delivery order within one report matters to the engine.
pub fn fold(
    directory: &PoleDirectory,
    config: &StoreConfig,
    pane_us: u64,
    reports: &[PoleReport],
) -> ReferenceRun {
    let n_shards = config.shards.max(1);
    let mut panes: BTreeMap<u64, CityAggregates> = BTreeMap::new();
    let mut shards: Vec<Vec<&TagObservation>> = vec![Vec::new(); n_shards];
    for report in reports {
        let multi = report.observations.iter().filter(|o| o.multi_occupied);
        let (n_obs, n_multi) = (report.observations.len() as u32, multi.count() as u32);
        let agg = panes.entry(report.timestamp_us / pane_us).or_default();
        agg.record_report(report.segment, report.count, n_obs, n_multi);
        for obs in &report.observations {
            shards[shard_of_bin(obs.cfo_bin, n_shards)].push(obs);
        }
    }
    let mut trackers = Vec::with_capacity(n_shards);
    for mut shard in shards {
        shard.sort_by_key(|obs| canonical_obs_key(obs));
        let mut tracker = TagTracker::new();
        for obs in shard {
            let agg = panes.entry(obs.timestamp_us / pane_us).or_default();
            fold_into(agg, &mut tracker, obs, directory, config);
        }
        trackers.push(tracker);
    }
    ReferenceRun { panes, trackers }
}

/// Every report of `source`, epoch by epoch, poles in id order.
pub fn reports_of<S: FrameSource>(source: &S) -> Vec<PoleReport> {
    let n_poles = source.directory().len() as u32;
    (0..source.epochs())
        .flat_map(|epoch| (0..n_poles).map(move |pole| source.report(pole, epoch)))
        .collect()
}

/// Folds one observation, in canonical order, into `agg` through its
/// shard's tracker.
pub(crate) fn fold_into(
    agg: &mut CityAggregates,
    tracker: &mut TagTracker,
    obs: &TagObservation,
    directory: &PoleDirectory,
    config: &StoreConfig,
) {
    agg.observations += 1;
    let resolved = resolve_position(obs, directory.site(obs.pole));
    agg.positions
        .record_method(resolved.method, resolved.sigma_m());
    let CityAggregates {
        flow,
        speeds,
        od,
        positions,
        ..
    } = agg;
    tracker.apply(obs, directory, config, |event| match event {
        DerivedEvent::Flow { segment, cycle } => flow.record(segment, cycle),
        DerivedEvent::Od { from, to } => od.record(from, to),
        DerivedEvent::Speed { mph, source } => {
            speeds.record(mph);
            match source {
                SpeedSource::PositionTrack => positions.track_speed_samples += 1,
                SpeedSource::ArrivalTime => positions.arrival_speed_samples += 1,
            }
        }
    });
}
