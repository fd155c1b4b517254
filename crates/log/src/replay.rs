//! Verified replay and crash recovery: the two consumers that turn a log
//! back into engine state.
//!
//! [`LogCity`] is the read-only face of the log — it replays every pane
//! into cumulative [`CityAggregates`], which the tests assert
//! fingerprint-equal to both the live engine that wrote the log and the
//! `caraoke_city::reference` fold of the same observations.
//! [`recover_state`] is the engine face — it rebuilds everything
//! `caraoke-live` needs to resume sealing at the first unsealed pane.

use crate::codec::LogRecord;
use crate::reader::{LogError, LogReader};
use caraoke_city::store::TagTracker;
use caraoke_city::{AliasStats, CityAggregates};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// The result of a full verified replay.
#[derive(Debug)]
pub struct LogReplay {
    /// Cumulative aggregates over every pane in the log (anchored at the
    /// last snapshot when the log has been truncated).
    pub totals: CityAggregates,
    /// Chain state after the last pane — byte-comparable to the writing
    /// engine's own chain.
    pub chain: u64,
    /// Pane records replayed (after the anchor snapshot, if any).
    pub panes: u64,
    /// First pane id replayed (0 for an untruncated log).
    pub first_pane: u64,
    /// First pane the log does *not* cover — where a resumed engine or
    /// dashboard picks up.
    pub next_pane: u64,
    /// Cumulative forced (staleness) seals.
    pub forced_panes: u64,
    /// Cumulative pole misses across forced seals.
    pub forced_pole_misses: u64,
    /// Poles declared dead over the log's lifetime, in declaration order.
    pub dead_poles: Vec<u32>,
    /// Bytes of torn tail truncated off the final segment while reading.
    pub torn_tail_bytes: u64,
    /// Merged alias-resolution counters across shards.
    pub alias: AliasStats,
    /// Distinct tags tracked at end of log.
    pub distinct_tags: usize,
}

/// Replays a pane log into cumulative [`CityAggregates`].
#[derive(Debug, Clone)]
pub struct LogCity {
    dir: PathBuf,
}

impl LogCity {
    /// Points the driver at a log directory (validated on replay).
    pub fn open(dir: impl AsRef<Path>) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// Runs a full verified replay: every record re-CRC'd, every pane
    /// fingerprint recomputed, the whole chain re-derived. Errors are the
    /// typed [`LogError`]s, so callers can distinguish corruption kinds.
    pub fn replay(&self) -> Result<LogReplay, LogError> {
        let reader = LogReader::open(&self.dir)?;
        let mut cursor = reader.records();
        let mut totals = CityAggregates::new();
        let mut trackers: Vec<TagTracker> = Vec::new();
        let mut panes = 0u64;
        let mut first_pane = None;
        let mut next_pane = 0u64;
        let mut forced_panes = 0u64;
        let mut forced_pole_misses = 0u64;
        let mut dead_poles = Vec::new();
        for record in cursor.by_ref() {
            match record? {
                LogRecord::Snapshot(snap) => {
                    totals = snap.total;
                    next_pane = snap.next_pane;
                    forced_panes = snap.forced_panes;
                    forced_pole_misses = snap.forced_pole_misses;
                    dead_poles = snap.dead_poles;
                    trackers = snap
                        .trackers
                        .iter()
                        .map(|delta| {
                            let mut t = TagTracker::new();
                            t.apply_delta(delta);
                            t
                        })
                        .collect();
                }
                LogRecord::Pane(p) => {
                    totals.merge(&p.aggregates);
                    if first_pane.is_none() {
                        first_pane = Some(p.pane);
                    }
                    next_pane = p.pane + 1;
                    panes += 1;
                    if p.forced {
                        forced_panes += 1;
                        forced_pole_misses += u64::from(p.pole_misses);
                    }
                    if trackers.len() < p.deltas.len() {
                        trackers.resize_with(p.deltas.len(), TagTracker::new);
                    }
                    for (tracker, delta) in trackers.iter_mut().zip(&p.deltas) {
                        tracker.apply_delta(delta);
                    }
                }
                LogRecord::DeadPole(pole) => dead_poles.push(pole),
            }
        }
        let mut alias = AliasStats::default();
        for tracker in &trackers {
            alias.merge(&tracker.alias_stats());
        }
        Ok(LogReplay {
            totals,
            chain: cursor.chain_state(),
            panes,
            first_pane: first_pane.unwrap_or(next_pane),
            next_pane,
            forced_panes,
            forced_pole_misses,
            dead_poles,
            torn_tail_bytes: cursor.torn_tail_bytes(),
            alias,
            distinct_tags: trackers.iter().map(TagTracker::distinct_tags).sum(),
        })
    }
}

/// Everything a restarted live engine needs to resume where the log ends.
#[derive(Debug)]
pub struct RecoveredState {
    /// First unsealed pane — where ingest resumes.
    pub next_pane: u64,
    /// Fingerprint chain state to resume from.
    pub chain_state: u64,
    /// Cumulative aggregates over all sealed panes.
    pub total: CityAggregates,
    /// The trailing sealed panes (up to the ring's retention), oldest
    /// first, for rebuilding the query window ring.
    pub ring: Vec<(u64, CityAggregates)>,
    /// Reconstructed per-shard tracker state, tracing already enabled.
    pub trackers: Vec<TagTracker>,
    /// Poles declared dead before the crash (they stay dead on resume).
    pub dead_poles: Vec<u32>,
    /// Cumulative forced-seal count to preload into stats.
    pub forced_panes: u64,
    /// Cumulative forced pole misses to preload into stats.
    pub forced_pole_misses: u64,
    /// Torn bytes detected (and to be truncated) at the tail.
    pub torn_tail_bytes: u64,
}

/// Replays a log into resumable engine state. `shards` must match the
/// writing engine's shard count (the log records it per pane);
/// `retain_panes` bounds the rebuilt window ring.
pub fn recover_state(
    dir: impl AsRef<Path>,
    shards: usize,
    retain_panes: usize,
) -> Result<RecoveredState, LogError> {
    let reader = LogReader::open(dir.as_ref())?;
    let mut cursor = reader.records();
    let mut total = CityAggregates::new();
    let mut trackers: Vec<TagTracker> = (0..shards).map(|_| TagTracker::new()).collect();
    let mut ring: VecDeque<(u64, CityAggregates)> = VecDeque::new();
    let mut next_pane = 0u64;
    let mut forced_panes = 0u64;
    let mut forced_pole_misses = 0u64;
    let mut dead_poles = Vec::new();
    for record in cursor.by_ref() {
        match record? {
            LogRecord::Snapshot(snap) => {
                if snap.trackers.len() != shards {
                    return Err(LogError::ShardMismatch {
                        expected: shards,
                        found: snap.trackers.len(),
                    });
                }
                total = snap.total;
                next_pane = snap.next_pane;
                forced_panes = snap.forced_panes;
                forced_pole_misses = snap.forced_pole_misses;
                dead_poles = snap.dead_poles;
                // Panes before the snapshot are gone from the log, so the
                // ring restarts here; windows reaching further back are
                // answerable only from `total`.
                ring.clear();
                for (tracker, delta) in trackers.iter_mut().zip(&snap.trackers) {
                    *tracker = TagTracker::new();
                    tracker.apply_delta(delta);
                }
            }
            LogRecord::Pane(p) => {
                if p.deltas.len() != shards {
                    return Err(LogError::ShardMismatch {
                        expected: shards,
                        found: p.deltas.len(),
                    });
                }
                total.merge(&p.aggregates);
                next_pane = p.pane + 1;
                if p.forced {
                    forced_panes += 1;
                    forced_pole_misses += u64::from(p.pole_misses);
                }
                for (tracker, delta) in trackers.iter_mut().zip(&p.deltas) {
                    tracker.apply_delta(delta);
                }
                if ring.len() == retain_panes.max(1) {
                    ring.pop_front();
                }
                ring.push_back((p.pane, p.aggregates));
            }
            LogRecord::DeadPole(pole) => dead_poles.push(pole),
        }
    }
    for tracker in &mut trackers {
        tracker.set_trace(true);
    }
    Ok(RecoveredState {
        next_pane,
        chain_state: cursor.chain_state(),
        total,
        ring: ring.into(),
        trackers,
        dead_poles,
        forced_panes,
        forced_pole_misses,
        torn_tail_bytes: cursor.torn_tail_bytes(),
    })
}
