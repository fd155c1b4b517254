//! The online ingest engine.
//!
//! [`LiveCity`] applies [`PoleReport`]s **as they arrive**. The hot path is
//! built so that ingest threads never block on shared state and never
//! allocate per report:
//!
//! * a lock-free [`WatermarkClock`] derives the event-time low watermark
//!   from pole report timestamps (per-pole atomic frontiers; every pole's
//!   stream is monotone);
//! * each ingest thread owns a **worker slot** — a thread-local out-of-order
//!   buffer (observations above the watermark, plus a flat pane-indexed
//!   table of report-level segment counters). A slot's mutex is only ever
//!   contended by the sealer, never by other ingest threads, so pushing a
//!   report is an uncontended lock plus a few appends: no global locks, no
//!   per-report allocation, no sorting;
//! * a **dedicated sealer thread** (spawned by [`LiveCity::new`], woken by a
//!   condvar whenever the watermark advances) drains the worker slots,
//!   establishes the canonical order, runs the per-shard [`TagTracker`]
//!   state machines (§8 alias upgrades included), folds each pane into one
//!   aggregate, fingerprints it into the engine's **fingerprint chain**,
//!   and pushes it into the retained [`WindowRing`]. Ingest threads only
//!   buffer and signal; they never seal.
//!
//! # The seal path: drain → sort → fold → publish
//!
//! Worker buffers and the seal scratch are struct-of-arrays: a 32-byte
//! `SealKey` column (every field the canonical order needs) parallel to
//! the full [`TagObservation`] column. A seal runs in chunks of at most
//! `MAX_SEAL_BUCKETS / shards` panes (a laggard pole 100k panes behind the
//! frontier seals in many bounded chunks), each through four stages:
//!
//! 1. **drain** — every worker slot's buffered panes below the chunk end
//!    move to the scratch with bulk copies;
//! 2. **sort** — a pane/shard counting-sort bucket pass over
//!    `(pane - first_pane) * shards + shard`, then a per-bucket sort of
//!    `u32` indices on `(timestamp, pole, tag, cfo_bin, seq)` — touching
//!    only the dense key column, never moving ~136-byte rows;
//! 3. **fold** — the one fold walk: each shard's buckets apply, pane by
//!    pane, to the shard's tracker, folding derived events into per-pane
//!    partial aggregates, sweeping idle-tag compaction and draining
//!    per-pane tracker deltas (when a pane log is attached) at the same
//!    pane boundaries. Tag shards are independent by construction
//!    (observations route to trackers by CFO bin), so with
//!    [`LiveConfig::seal_pool`] > 1 contiguous shard ranges fold on a
//!    small scoped-thread pool; a pool of 1 runs the same walk inline;
//! 4. **publish** — each pane's partials merge **in shard order** (every
//!    aggregate is an integer counter, so the pane is byte-identical for
//!    any pool size — the pool-sweep stress tests pin this), its
//!    fingerprint extends the chain, the pane log appends it, and it
//!    becomes queryable.
//!
//! Reports and observations *below* the sealed frontier — late beyond the
//! lateness allowance — are **counted and shed**, never silently merged
//! into already-sealed windows. Malformed reports (a pole outside the
//! directory, or observations naming another pole) are **counted and
//! rejected** at ingest, so the sealer never sees them.
//!
//! # Determinism contract
//!
//! For a fixed seed, any shard count, any number of concurrent ingest
//! threads, and **any arrival interleaving consistent with the watermarks**
//! (FIFO per pole; cross-pole order free) produce byte-identical sealed
//! panes, hence an identical fingerprint chain and totals. Why: a pane is
//! sealed only once every pole's frontier has passed it (plus the lateness
//! allowance), and per-pole FIFO delivery means every observation of the
//! pane is buffered in some worker slot by then; the canonical sort —
//! `(pane, shard, timestamp, pole, tag, seq)`, where `seq` is the
//! observation's index within its report — erases the remaining cross-pole
//! and cross-worker arrival freedom, with bounded memory. The chain and
//! totals are moreover byte-identical to the single-threaded
//! [`caraoke_city::reference`] fold of the same reports (the end-to-end
//! tests pin both properties).
//!
//! Because sealing is asynchronous, *when* a pane appears in the ring is
//! timing-dependent even though *what* it contains is not. Callers that
//! assert on sealed state mid-stream should call [`LiveCity::wait_idle`]
//! first; [`LiveCity::finish`] always waits for the final flush.

use crate::watermark::WatermarkClock;
use crate::window::{WindowAggregate, WindowRing};
use caraoke_city::aggregate::Fingerprint;
use caraoke_city::position::resolve_position;
use caraoke_city::store::{AliasStats, DerivedEvent, SpeedSource, TagTracker, TrackerDelta};
use caraoke_city::{
    CityAggregates, PoleDirectory, PoleId, PoleReport, SegmentStats, StoreConfig, TagObservation,
};
use caraoke_log::{recover_state, LogError, LogOptions, SegmentWriter, SnapshotRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of the online engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Tracker knobs: shard count, light-cycle length, speed-gap
    /// plausibility bounds.
    pub store: StoreConfig,
    /// Pane width, µs: the granularity of watermark advance and window
    /// sealing. Default 1.5 s (one §9 query epoch).
    pub pane_us: u64,
    /// Extra panes the engine waits below the watermark before sealing, to
    /// absorb delivery that is not perfectly FIFO per pole.
    pub lateness_panes: u64,
    /// Sealed panes retained for window queries; older panes are evicted
    /// (their counts stay in the running totals and fingerprint chain).
    pub retain_panes: usize,
    /// Bound on each ingest worker's out-of-order buffer; observations
    /// beyond it are shed and counted (`overflow_shed`), never dropped
    /// silently.
    pub max_pending_per_worker: usize,
    /// Wall-clock bound on pane staleness. Panes normally seal on
    /// *event-time* watermark advance only, so a pole dying mid-run stalls
    /// the watermark and every pane behind it forever. With a staleness
    /// bound, the sealer thread force-seals every pane the *fastest* pole
    /// has fully elapsed once no seal progress has happened for this long,
    /// counting the poles that missed each forced pane
    /// ([`LiveStats::forced_pole_misses`]); their late data is then shed
    /// with the usual counters, never merged. `None` (the default) keeps
    /// sealing purely event-time — and purely deterministic; forced seals
    /// depend on wall-clock timing, so runs that need byte-reproducible
    /// window chains should leave this off.
    pub max_pane_staleness: Option<Duration>,
    /// Tracker compaction: evict tags idle for at least this long (event
    /// time, µs) at the end of every
    /// [`compact_every_panes`](Self::compact_every_panes)-th pane. Bounds
    /// tracker (and therefore snapshot/replay/catch-up) state by the *active*
    /// tag population instead of every tag ever seen. Evictions run before
    /// the pane's delta is taken, so a delta-by-delta replay carries the
    /// removals and converges to the same compacted state. Cutoffs derive
    /// from pane boundaries, never wall clock, so compaction preserves
    /// determinism. `None` (the default) never evicts.
    pub compact_idle_us: Option<u64>,
    /// How often (in panes) the idle-tag sweep runs when
    /// [`compact_idle_us`](Self::compact_idle_us) is set. Sweeping every pane
    /// would be O(tags) per pane; the default of 64 amortises it.
    pub compact_every_panes: u64,
    /// Retry policy for pane-log writes (see [`LogRetryPolicy`]). Transient
    /// errors are retried with bounded exponential backoff *under the sealed
    /// lock* — durability-before-visibility holds across retries — before
    /// the sink latches failed; fatal errors latch immediately.
    pub log_retry: LogRetryPolicy,
    /// Sealer tracker-pool threads. Tag shards are independent, so with a
    /// pool of N the sealer applies tracker state machines on N scoped
    /// threads (each owning a contiguous shard range) and merges their
    /// per-pane partial aggregates and deltas in shard order — byte-identical
    /// for **any** value (the stress suite sweeps pool sizes against the
    /// pool-of-1 chain). Clamped to the shard count; `1` (the default) runs
    /// the same fold walk inline on the sealer thread, with no extra
    /// threads.
    pub seal_pool: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            store: StoreConfig::default(),
            pane_us: 1_500_000,
            lateness_panes: 1,
            retain_panes: 64,
            max_pending_per_worker: 1 << 20,
            max_pane_staleness: None,
            compact_idle_us: None,
            compact_every_panes: 64,
            log_retry: LogRetryPolicy::default(),
            seal_pool: 1,
        }
    }
}

/// Bounded exponential-backoff retry for pane-log writes.
///
/// The sealer classifies write errors by [`io::ErrorKind`]:
/// `Interrupted`, `WouldBlock` and `TimedOut` are **transient** — the kind
/// of hiccup a loaded disk or interrupted syscall produces — and are
/// retried up to [`max_attempts`](Self::max_attempts) total tries with
/// exponentially growing sleeps. Everything else (permissions, disk full,
/// closed descriptors) is **fatal**: the sink latches failed immediately,
/// sealing continues without durability, and
/// [`LiveCity::reattach_log`] can restore it to a fresh directory.
///
/// Retried appends assume the failed attempt wrote nothing — true for
/// injected faults (checked before any I/O) and for buffered writes that
/// fail at flush; a torn tail from a genuine partial write is repaired by
/// recovery's truncation, never by in-process retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRetryPolicy {
    /// Total tries per logical write (first attempt + retries); `0` acts
    /// as `1` (no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for LogRetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl LogRetryPolicy {
    /// No retries: the first error of any kind latches the sink (the
    /// pre-retry behaviour).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The sleep before retry number `retry` (0-based), capped at
    /// [`max_backoff`](Self::max_backoff).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Is this I/O error worth retrying?
fn transient_io_error(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What happened to one ingested report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The report was applied (buffered toward its panes).
    Applied,
    /// The report arrived beyond the lateness allowance — it was counted
    /// and shed whole.
    ShedLate,
    /// The report was malformed — its pole is outside the directory, or an
    /// observation names a different pole than the report — and was
    /// counted ([`LiveStats::rejected_reports`]) and dropped whole.
    Rejected,
}

/// Snapshot of the engine's telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveStats {
    /// Reports accepted.
    pub reports: u64,
    /// Observations sealed into panes so far.
    pub observations: u64,
    /// Whole reports shed for arriving beyond the lateness allowance.
    pub shed_reports: u64,
    /// Malformed reports rejected at ingest ([`IngestOutcome::Rejected`]).
    pub rejected_reports: u64,
    /// Individual observations shed as late.
    pub shed_observations: u64,
    /// Observations shed because a worker's out-of-order buffer was full.
    pub overflow_shed: u64,
    /// Observations currently buffered above the watermark.
    pub buffered_observations: u64,
    /// Panes sealed so far.
    pub sealed_panes: u64,
    /// Current event-time low watermark, µs.
    pub watermark_us: u64,
    /// Timestamps below this have been sealed; arrivals below it shed.
    pub seal_floor_us: u64,
    /// Panes sealed by the wall-clock staleness timeout rather than the
    /// watermark (only nonzero with [`LiveConfig::max_pane_staleness`]).
    pub forced_panes: u64,
    /// Sum over forced panes of the poles whose frontier had not passed the
    /// pane when it was force-sealed.
    pub forced_pole_misses: u64,
    /// Worker slots currently registered (ingest threads that have not been
    /// decommissioned via [`LiveCity::unregister_worker`]).
    pub worker_slots: u64,
    /// Poles removed from the watermark quorum via
    /// [`LiveCity::declare_pole_dead`] (survives recovery: the log
    /// records each declaration).
    pub dead_poles: u64,
    /// Pane-log writes retried after a transient error (each re-attempt
    /// counts once). Nonzero with `log_errors_fatal == 0` means the disk
    /// hiccupped but durability held.
    pub log_retries: u64,
    /// Transient pane-log write errors observed (`Interrupted`,
    /// `WouldBlock`, `TimedOut`) — retried per
    /// [`LiveConfig::log_retry`], so each may or may not have cost
    /// durability.
    pub log_errors_transient: u64,
    /// Fatal pane-log failures: a non-transient error, or transient retries
    /// exhausted. Each latches the sink — the engine keeps sealing but
    /// stops appending (liveness over durability; the log on disk stays a
    /// valid prefix) until [`LiveCity::reattach_log`] installs a fresh log.
    pub log_errors_fatal: u64,
    /// Tags evicted by idle-tag compaction
    /// ([`LiveConfig::compact_idle_us`]), summed over shards.
    pub compacted_tags: u64,
    /// Mid-stream decode alias counters, summed over shards (§8).
    pub alias: AliasStats,
}

/// The dense sort column of the seal path: every field the canonical order
/// `(pane, shard, timestamp, pole, tag, cfo_bin, seq)` needs, in 32 bytes,
/// kept parallel to the full [`TagObservation`] column. The shard is
/// computed once, at ingest; `seq` is the observation's index within its
/// report, which breaks canonical-sort ties between observations sharing
/// `(timestamp, pole, tag)` — such ties can only come from one report, so
/// `seq` restores a deterministic total order no matter which worker
/// buffered them. The pane is *not* stored: it is `timestamp_us / pane_us`,
/// recomputed where needed.
#[derive(Debug, Clone, Copy)]
struct SealKey {
    timestamp_us: u64,
    tag: u64,
    pole: u32,
    cfo_bin: u32,
    shard: u32,
    seq: u32,
}

impl SealKey {
    /// The canonical within-bucket order: the tracker's
    /// `canonical_obs_key` (timestamp, pole, tag, cfo_bin) plus the
    /// within-report tie-breaker.
    fn bucket_key(&self) -> (u64, u32, u64, u32, u32) {
        (
            self.timestamp_us,
            self.pole,
            self.tag,
            self.cfo_bin,
            self.seq,
        )
    }
}

/// Report-level segment counters, pane-keyed: a sorted list of **occupied**
/// panes, each holding its `(segment, stats)` rows. The hot path (a report
/// for the newest pane) touches the last entry in O(1); out-of-order panes
/// within the lateness allowance binary-search. Memory is O(occupied panes
/// × segments-per-worker) no matter how far a fast pole runs ahead of a
/// laggard — a dense `pane - base` table would grow with the pane *span*.
/// Replaces the old lock-striped `BTreeMap<(pane, segment), _>`.
#[derive(Debug, Default)]
struct SegPanes {
    /// `(pane, rows)`, sorted by pane; only panes that saw a report.
    panes: Vec<(u64, Vec<(u16, SegmentStats)>)>,
}

impl SegPanes {
    fn record(&mut self, pane: u64, segment: u16, count: u32, observations: u32, multi: u32) {
        let idx = match self.panes.last() {
            Some(&(last, _)) if last == pane => self.panes.len() - 1,
            Some(&(last, _)) if last < pane => {
                self.panes.push((pane, Vec::new()));
                self.panes.len() - 1
            }
            _ => match self.panes.binary_search_by_key(&pane, |&(p, _)| p) {
                Ok(idx) => idx,
                Err(idx) => {
                    self.panes.insert(idx, (pane, Vec::new()));
                    idx
                }
            },
        };
        let rows = &mut self.panes[idx].1;
        match rows.iter_mut().find(|(seg, _)| *seg == segment) {
            Some((_, stats)) => stats.record_report(count, observations, multi),
            None => {
                let mut stats = SegmentStats::default();
                stats.record_report(count, observations, multi);
                rows.push((segment, stats));
            }
        }
    }

    /// Removes every pane below `target` (in pane order), handing its rows
    /// to `f`.
    fn drain_below(&mut self, target: u64, mut f: impl FnMut(u64, u16, SegmentStats)) {
        let cut = self.panes.partition_point(|&(pane, _)| pane < target);
        for (pane, rows) in self.panes.drain(..cut) {
            for (seg, stats) in rows {
                f(pane, seg, stats);
            }
        }
    }
}

/// Drained report-level segment rows, by pane.
type SegRows = BTreeMap<u64, Vec<(u16, SegmentStats)>>;

/// One pane's worth of one worker's buffered observations, columnar: the
/// [`SealKey`] column and the observation column grow in lockstep.
#[derive(Debug, Default)]
struct PaneBucket {
    pane: u64,
    keys: Vec<SealKey>,
    obs: Vec<TagObservation>,
}

/// One ingest worker's private buffers, columnar and *pane-bucketed*: each
/// occupied pane owns its own key/observation columns, so a seal moves the
/// sealed panes' buckets with bulk copies and never rescans the buffered
/// tail ahead of the frontier (a flat buffer pays one filter pass over
/// `lateness_panes` worth of retained observations at every seal). The
/// mutex is uncontended in steady state: only the owning thread pushes,
/// and the sealer drains it briefly at watermark advances.
#[derive(Debug, Default)]
struct WorkerBuf {
    /// Occupied panes, sorted by pane index. The hot push is the last
    /// bucket (reports arrive in near-pane-order); out-of-order panes
    /// within the lateness allowance binary-search, like [`SegPanes`].
    panes: Vec<PaneBucket>,
    /// Drained buckets' emptied columns, recycled so steady state stops
    /// allocating.
    spare: Vec<PaneBucket>,
    /// Total buffered observations across `panes` (the overflow bound).
    len: usize,
    seg: SegPanes,
}

impl WorkerBuf {
    fn is_empty(&self) -> bool {
        self.len == 0 && self.seg.panes.is_empty()
    }

    /// The bucket for `pane`, created (from the spare list when possible)
    /// if the pane is not yet occupied.
    fn bucket(&mut self, pane: u64) -> &mut PaneBucket {
        let idx = match self.panes.last() {
            Some(last) if last.pane == pane => self.panes.len() - 1,
            Some(last) if last.pane < pane => {
                self.push_bucket(pane);
                self.panes.len() - 1
            }
            None => {
                self.push_bucket(pane);
                0
            }
            _ => match self.panes.binary_search_by_key(&pane, |b| b.pane) {
                Ok(idx) => idx,
                Err(idx) => {
                    let bucket = self.fresh_bucket(pane);
                    self.panes.insert(idx, bucket);
                    idx
                }
            },
        };
        &mut self.panes[idx]
    }

    fn push_bucket(&mut self, pane: u64) {
        let bucket = self.fresh_bucket(pane);
        self.panes.push(bucket);
    }

    fn fresh_bucket(&mut self, pane: u64) -> PaneBucket {
        let mut bucket = self.spare.pop().unwrap_or_default();
        bucket.pane = pane;
        bucket
    }
}

#[derive(Debug, Default)]
struct WorkerSlot {
    buf: Mutex<WorkerBuf>,
}

/// Largest pane × shard bucket table one seal chunk uses: a seal spanning
/// 100k panes (one laggard pole far behind the frontier) runs in chunks of
/// `MAX_SEAL_BUCKETS / shards` panes instead of allocating a counting table
/// for the whole span.
const MAX_SEAL_BUCKETS: usize = 1 << 16;

/// The sealer's reusable staging buffers, columnar like [`WorkerBuf`]:
/// drained keys and observations, the canonical-order index vector, and
/// the counting-sort bucket tables the fold walks straight off.
#[derive(Debug, Default)]
struct SealScratch {
    keys: Vec<SealKey>,
    obs: Vec<TagObservation>,
    /// Indices into `keys`/`obs` in canonical order.
    order: Vec<u32>,
    /// `offsets[b]..offsets[b + 1]` is bucket `b`'s range in `order`
    /// (bucket = `(pane - first_pane) * n_shards + shard`).
    offsets: Vec<u32>,
    /// Scatter cursors for the counting pass.
    cursors: Vec<u32>,
}

impl SealScratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.obs.clear();
        self.order.clear();
        self.offsets.clear();
        self.cursors.clear();
    }

    /// Seal stage 2: establishes the canonical order over the drained
    /// columns, as `u32` indices in `order` — a counting sort over
    /// `(pane, shard)` buckets followed by a per-bucket sort on
    /// `(timestamp, pole, tag, cfo_bin, seq)`. The caller's chunking keeps
    /// the table within [`MAX_SEAL_BUCKETS`] (or one pane's shards).
    fn sort(&mut self, first_pane: u64, span: usize, n_shards: usize, pane_us: u64) {
        let len = self.keys.len();
        debug_assert!(len <= u32::MAX as usize, "seal batch exceeds u32 indices");
        let n_buckets = span * n_shards;
        debug_assert!(n_buckets <= MAX_SEAL_BUCKETS.max(n_shards));
        let bucket = |k: &SealKey| {
            (k.timestamp_us / pane_us - first_pane) as usize * n_shards + k.shard as usize
        };
        self.offsets.clear();
        self.offsets.resize(n_buckets + 1, 0);
        for k in &self.keys {
            self.offsets[bucket(k) + 1] += 1;
        }
        for b in 0..n_buckets {
            self.offsets[b + 1] += self.offsets[b];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n_buckets]);
        self.order.clear();
        self.order.resize(len, 0);
        for (i, k) in self.keys.iter().enumerate() {
            let b = bucket(k);
            self.order[self.cursors[b] as usize] = i as u32;
            self.cursors[b] += 1;
        }
        let keys = &self.keys;
        for b in 0..n_buckets {
            let range = self.offsets[b] as usize..self.offsets[b + 1] as usize;
            if range.len() > 1 {
                self.order[range].sort_unstable_by_key(|&i| keys[i as usize].bucket_key());
            }
        }
    }
}

/// Sealed-window state plus the sealer's private machinery (trackers and
/// scratch), guarded by one mutex so seals are serialized with queries and
/// the chain/ring/totals stay mutually consistent.
struct SealedState {
    /// Next pane index to seal.
    next_pane: u64,
    /// Retained sealed panes for window queries.
    ring: WindowRing<CityAggregates>,
    /// Running FNV-1a chain over every sealed `(pane, fingerprint)` pair.
    chain: Fingerprint,
    /// Whole-run totals (merge of every sealed pane, retained or not).
    total: CityAggregates,
    /// Per-shard tag state machines, owned by the sealer (sealing was
    /// always serialized; owning them here removes the per-shard mutexes
    /// the ingest path used to take).
    trackers: Vec<TagTracker>,
    /// Reusable staging buffers for drained observations.
    scratch: SealScratch,
}

/// The durable pane log behind [`LiveCity::with_log`] /
/// [`LiveCity::recover`]. Locked by the sealer once per seal batch and by
/// `declare_pole_dead`; never on the ingest path.
struct LogSink {
    writer: SegmentWriter,
    /// Snapshot cadence in panes (0 = never), from
    /// [`LogOptions::snapshot_every_panes`].
    snapshot_every: u64,
    /// `next_pane` as of the last snapshot (or engine start).
    last_snapshot_pane: u64,
    /// Set on the first fatal write error (or exhausted retries): sealing
    /// continues, appends stop, until `reattach_log` replaces the sink.
    failed: bool,
}

impl LogSink {
    fn new(writer: SegmentWriter, last_snapshot_pane: u64) -> Self {
        let snapshot_every = writer.options().snapshot_every_panes;
        Self {
            writer,
            snapshot_every,
            last_snapshot_pane,
            failed: false,
        }
    }
}

/// What the ingest side tells the sealer thread.
struct SealerSignal {
    /// Highest pane boundary (exclusive) the sealer has been asked to reach.
    target: u64,
    /// Set by `Drop`: finish the outstanding target, then exit.
    shutdown: bool,
}

/// Engine identity for the thread-local worker-slot cache (engines must not
/// share slots, and ids must outlive any engine they ever named).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's worker slots, one per engine it has ingested into.
    /// Entries for dropped engines are pruned on the next registration.
    static WORKER_SLOTS: RefCell<Vec<(u64, Arc<WorkerSlot>)>> = const { RefCell::new(Vec::new()) };
}

/// Shared core of the engine: everything both the ingest threads and the
/// sealer thread touch.
struct LiveCore {
    directory: PoleDirectory,
    config: LiveConfig,
    engine_id: u64,
    n_shards: usize,
    clock: WatermarkClock,
    /// Registry of every worker slot ever handed out (the sealer drains
    /// these; ingest threads reach their own slot through the thread-local
    /// cache without touching this lock).
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Buffers drained out of decommissioned worker slots
    /// ([`LiveCity::unregister_worker`]): still above the watermark when
    /// the worker left, sealed by the sealer exactly like live slots.
    orphans: Mutex<Vec<WorkerBuf>>,
    sealed: Mutex<SealedState>,
    /// Notified after every seal batch (pairs with `sealed`): wakes
    /// `finish`, `wait_idle` and blocking subscriptions.
    pane_sealed: Condvar,
    signal: Mutex<SealerSignal>,
    /// Wakes the sealer thread (pairs with `signal`).
    seal_wake: Condvar,
    /// Cache of `next_pane * pane_us`, readable without the sealed lock.
    seal_floor_us: AtomicU64,
    reports: AtomicU64,
    shed_reports: AtomicU64,
    rejected_reports: AtomicU64,
    shed_observations: AtomicU64,
    overflow_shed: AtomicU64,
    forced_panes: AtomicU64,
    forced_pole_misses: AtomicU64,
    dead_poles: AtomicU64,
    log_retries: AtomicU64,
    log_errors_transient: AtomicU64,
    log_errors_fatal: AtomicU64,
    compacted_tags: AtomicU64,
    /// Durable pane log. `None` until the engine is built with one (or one
    /// is installed later via [`LiveCity::reattach_log`]).
    log: Mutex<Option<LogSink>>,
}

/// The online city engine. See the module docs for the architecture and
/// the determinism contract; see [`crate::query`] for the read side.
///
/// Owns a dedicated sealer thread for its whole lifetime: `new` spawns it,
/// `Drop` signals shutdown and joins it.
pub struct LiveCity {
    core: Arc<LiveCore>,
    sealer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl LiveCity {
    /// Creates an engine over the given deployment and spawns its sealer
    /// thread.
    pub fn new(directory: PoleDirectory, config: LiveConfig) -> Self {
        Self::assemble(directory, config, None, None)
    }

    /// Like [`new`](Self::new), but every sealed pane is appended to a
    /// durable log under `log_dir` **before** it becomes queryable —
    /// including forced and staleness seals — so a crashed engine can be
    /// [`recover`](Self::recover)ed at the first unsealed pane. `log_dir`
    /// must not already hold a caraoke log.
    ///
    /// A log write failure never stalls sealing: transient errors retry
    /// per [`LiveConfig::log_retry`]; a fatal error (or exhausted retries)
    /// is counted ([`LiveStats::log_errors_fatal`]), appends stop, and the
    /// engine keeps serving until [`reattach_log`](Self::reattach_log)
    /// restores durability.
    pub fn with_log(
        directory: PoleDirectory,
        config: LiveConfig,
        log_dir: impl AsRef<Path>,
        opts: LogOptions,
    ) -> io::Result<Self> {
        Ok(Self::with_log_writer(
            directory,
            config,
            SegmentWriter::create(log_dir, opts)?,
        ))
    }

    /// Like [`with_log`](Self::with_log), but over a caller-built
    /// [`SegmentWriter`] — the hook fault-injection harnesses use to hand
    /// the engine a writer with a
    /// [`WriteFault`](caraoke_log::WriteFault) schedule installed.
    pub fn with_log_writer(
        directory: PoleDirectory,
        config: LiveConfig,
        writer: SegmentWriter,
    ) -> Self {
        Self::assemble(directory, config, Some(LogSink::new(writer, 0)), None)
    }

    /// Rebuilds an engine from the pane log a [`with_log`](Self::with_log)
    /// engine wrote: totals, fingerprint chain, window ring, per-shard
    /// tracker state, dead-pole set and forced-seal counters all resume
    /// exactly where the last durable pane left them, and the log is
    /// reopened for appending (any torn tail is truncated on disk first).
    ///
    /// The recovered engine's seal floor is the first unsealed pane —
    /// re-delivering every report at or above it (and none below) resumes
    /// the run exactly-once: the final chain and totals are byte-identical
    /// to an uninterrupted run. `config` must match the writing engine's
    /// (shard count and pane width in particular; a shard mismatch is a
    /// typed error).
    pub fn recover(
        log_dir: impl AsRef<Path>,
        directory: PoleDirectory,
        config: LiveConfig,
        opts: LogOptions,
    ) -> Result<Self, LogError> {
        let shards = config.store.shards.max(1);
        let state = recover_state(&log_dir, shards, config.retain_panes)?;
        let writer = SegmentWriter::open_for_append(&log_dir, opts, state.next_pane)?;
        let sink = LogSink::new(writer, state.next_pane);
        Ok(Self::assemble(directory, config, Some(sink), Some(state)))
    }

    /// Installs a fresh pane log on a running engine — the recovery path
    /// for a fatal log failure ([`LiveStats::log_errors_fatal`]), and the
    /// way to add durability to an engine built without a log. Holding the
    /// sealed lock, the engine's complete current state (totals, chain,
    /// trackers, dead poles, forced-seal counters) is written into `writer`
    /// as a snapshot record and fsynced; every pane sealed afterwards
    /// appends to the new log. The resulting log recovers and replays like
    /// any snapshot-headed log: [`recover`](Self::recover) on its
    /// directory resumes exactly where this engine is now.
    ///
    /// Replaces any existing sink (healthy or failed); the old writer is
    /// flushed and dropped. Fails — leaving the engine unchanged — if the
    /// snapshot cannot be made durable in the new writer.
    pub fn reattach_log(&self, mut writer: SegmentWriter) -> io::Result<()> {
        let core = &*self.core;
        let mut sealed = core.sealed.lock().expect("sealed state");
        let state = &mut *sealed;
        // Engines built without a log never traced tracker deltas; turn
        // tracing on so post-snapshot panes carry them. Safe mid-run: delta
        // sets are drained every sealed pane, and we hold the sealed lock.
        for tracker in &mut state.trackers {
            tracker.set_trace(true);
        }
        let snap = SnapshotRecord {
            next_pane: state.next_pane,
            chain: state.chain.finish(),
            forced_panes: core.forced_panes.load(Ordering::Relaxed),
            forced_pole_misses: core.forced_pole_misses.load(Ordering::Relaxed),
            dead_poles: core.clock.dead_poles(),
            total: state.total.clone(),
            trackers: state.trackers.iter().map(TagTracker::export).collect(),
        };
        writer.append_snapshot(&snap)?;
        let sink = LogSink::new(writer, state.next_pane);
        // Lock order matches the sealer (sealed → log), so no deadlock.
        *core.log.lock().expect("log sink") = Some(sink);
        Ok(())
    }

    /// Shared constructor: fresh or recovered state, with or without a
    /// durable log.
    fn assemble(
        directory: PoleDirectory,
        config: LiveConfig,
        log: Option<LogSink>,
        resume: Option<caraoke_log::RecoveredState>,
    ) -> Self {
        let shards = config.store.shards.max(1);
        let (sealed, clock, forced_panes, forced_pole_misses, dead_poles) = match resume {
            Some(state) => {
                let mut ring = WindowRing::new(config.retain_panes);
                for (pane, agg) in state.ring {
                    ring.push(pane, agg);
                }
                let clock = WatermarkClock::resume(
                    directory.len(),
                    config.pane_us,
                    state.next_pane,
                    &state.dead_poles,
                );
                let sealed = SealedState {
                    next_pane: state.next_pane,
                    ring,
                    chain: Fingerprint::resume(state.chain_state),
                    total: state.total,
                    trackers: state.trackers,
                    scratch: SealScratch::default(),
                };
                (
                    sealed,
                    clock,
                    state.forced_panes,
                    state.forced_pole_misses,
                    state.dead_poles.len() as u64,
                )
            }
            None => {
                let mut trackers: Vec<TagTracker> =
                    (0..shards).map(|_| TagTracker::new()).collect();
                if log.is_some() {
                    // Per-pane tracker deltas for the log.
                    for tracker in &mut trackers {
                        tracker.set_trace(true);
                    }
                }
                let sealed = SealedState {
                    next_pane: 0,
                    ring: WindowRing::new(config.retain_panes),
                    chain: Fingerprint::new(),
                    total: CityAggregates::new(),
                    trackers,
                    scratch: SealScratch::default(),
                };
                let clock = WatermarkClock::new(directory.len(), config.pane_us);
                (sealed, clock, 0, 0, 0)
            }
        };
        let seal_floor_us = sealed.next_pane * config.pane_us;
        let core = Arc::new(LiveCore {
            clock,
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            n_shards: shards,
            workers: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            sealed: Mutex::new(sealed),
            pane_sealed: Condvar::new(),
            signal: Mutex::new(SealerSignal {
                target: 0,
                shutdown: false,
            }),
            seal_wake: Condvar::new(),
            seal_floor_us: AtomicU64::new(seal_floor_us),
            reports: AtomicU64::new(0),
            shed_reports: AtomicU64::new(0),
            rejected_reports: AtomicU64::new(0),
            shed_observations: AtomicU64::new(0),
            overflow_shed: AtomicU64::new(0),
            forced_panes: AtomicU64::new(forced_panes),
            forced_pole_misses: AtomicU64::new(forced_pole_misses),
            dead_poles: AtomicU64::new(dead_poles),
            log_retries: AtomicU64::new(0),
            log_errors_transient: AtomicU64::new(0),
            log_errors_fatal: AtomicU64::new(0),
            compacted_tags: AtomicU64::new(0),
            log: Mutex::new(log),
            directory,
            config,
        });
        let sealer_core = Arc::clone(&core);
        let sealer = std::thread::Builder::new()
            .name("caraoke-live-sealer".into())
            .spawn(move || sealer_core.sealer_loop())
            .expect("spawn sealer thread");
        Self {
            core,
            sealer: Mutex::new(Some(sealer)),
        }
    }

    /// Removes a stalled pole from the watermark quorum so event-time
    /// sealing resumes without it: boundaries the pole never reached
    /// complete from the remaining live poles' credits alone. Returns
    /// `false` (and changes nothing) when the pole is already dead or is
    /// the last live pole.
    ///
    /// The declaration is counted ([`LiveStats::dead_poles`]), recorded in
    /// the pane log (replay and [`recover`](Self::recover) stay faithful),
    /// and irrevocable: observations the dead pole already delivered stay
    /// sealed, later ones are shed as late once the watermark passes them.
    /// Like FIFO-per-pole delivery, *quiescence is the caller's
    /// obligation*: declare a pole dead only once its delivery stream has
    /// stopped.
    pub fn declare_pole_dead(&self, pole: PoleId) -> bool {
        let core = &*self.core;
        if !core.clock.declare_dead(pole) {
            return false;
        }
        core.dead_poles.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = core.log.lock().expect("log sink");
            if let Some(sink) = guard.as_mut() {
                if core.log_write(sink, "dead-pole append", |w| w.append_dead_pole(pole.0)) {
                    core.log_write(sink, "dead-pole commit", |w| w.commit_seal());
                }
            }
        }
        // Removing the laggard may have completed boundaries it was
        // holding back: wake the sealer for them.
        let target = core
            .clock
            .completed()
            .saturating_sub(core.config.lateness_panes);
        if target > 0 {
            core.request_seal(target);
        }
        true
    }

    /// The deployment directory.
    pub fn directory(&self) -> &PoleDirectory {
        &self.core.directory
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LiveConfig {
        &self.core.config
    }

    /// Applies one pole report as it arrives. Safe to call from many
    /// threads at once; each pole's reports must be delivered FIFO (the
    /// watermark contract) — reports older than the sealed frontier are
    /// counted and shed, and malformed reports (a pole outside the
    /// directory, or an observation whose pole differs from the report's)
    /// are counted and rejected whole.
    ///
    /// Lock-light: the only lock taken is the calling thread's own worker
    /// slot (contended only by the sealer), plus — on the rare report that
    /// advances the watermark — the sealer wake-up signal.
    pub fn ingest(&self, report: &PoleReport) -> IngestOutcome {
        self.core.ingest(report)
    }

    /// Flushes the run: asks the sealer to seal every pane up to the latest
    /// timestamp heard — as if every pole had reported past it — and waits
    /// until it has. Call once ingestion ends; ingest must not run
    /// concurrently with the flush.
    pub fn finish(&self) {
        let core = &*self.core;
        let target = core.clock.max_frontier_us() / core.config.pane_us + 1;
        core.request_seal(target);
        let mut sealed = core.sealed.lock().expect("sealed state");
        while sealed.next_pane < target {
            sealed = core.pane_sealed.wait(sealed).expect("sealed state");
        }
    }

    /// Blocks until the sealer has caught up with every pane the watermark
    /// has released so far. Useful before asserting on sealed state
    /// mid-stream; [`finish`](LiveCity::finish) already waits.
    pub fn wait_idle(&self) {
        let core = &*self.core;
        let target = core.signal.lock().expect("sealer signal").target;
        let mut sealed = core.sealed.lock().expect("sealed state");
        while sealed.next_pane < target {
            sealed = core.pane_sealed.wait(sealed).expect("sealed state");
        }
    }

    /// Blocks until the seal floor reaches at least `floor_us` — i.e. every
    /// pane ending at or below it is sealed. The ingest-side backpressure
    /// primitive: a producer that knows it is `k` panes ahead waits here,
    /// bounding buffered memory instead of tripping the
    /// [`LiveConfig::max_pending_per_worker`] overflow shed. Callers must
    /// only wait on floors the watermark can actually release — a floor
    /// above (watermark − lateness allowance) that no further ingest will
    /// push over blocks until [`finish`](LiveCity::finish) or a staleness
    /// force-seal supplies it.
    pub fn wait_seal_floor(&self, floor_us: u64) {
        let core = &*self.core;
        if core.seal_floor_us.load(Ordering::Acquire) >= floor_us {
            return;
        }
        let mut sealed = core.sealed.lock().expect("sealed state");
        while sealed.next_pane * core.config.pane_us < floor_us {
            sealed = core.pane_sealed.wait(sealed).expect("sealed state");
        }
    }

    /// Decommissions the calling thread's worker slot for this engine: its
    /// buffered (not-yet-sealed) observations move to the engine's orphan
    /// set — the sealer seals them exactly as if the worker were still
    /// alive — and the slot is freed from both the engine's registry and
    /// the thread-local cache. Call from an ingest thread that is done with
    /// this engine; without it, a churning ingest pool (threads joining and
    /// leaving over a long-lived deployment) grows the slot registry, and
    /// the sealer's drain pass, forever.
    ///
    /// A no-op when the calling thread never ingested into this engine.
    /// Ingesting again from the same thread simply registers a fresh slot.
    pub fn unregister_worker(&self) {
        self.core.unregister_worker();
    }

    /// Current event-time low watermark, µs.
    pub fn watermark_us(&self) -> u64 {
        self.core.clock.watermark_us()
    }

    /// Number of panes sealed so far.
    pub fn sealed_panes(&self) -> u64 {
        self.core.sealed.lock().expect("sealed state").next_pane
    }

    /// The running fingerprint chain over every sealed `(pane, fingerprint)`
    /// pair — the live determinism witness: equal chains mean byte-identical
    /// window sequences.
    pub fn fingerprint_chain(&self) -> u64 {
        self.core
            .sealed
            .lock()
            .expect("sealed state")
            .chain
            .finish()
    }

    /// Whole-run totals: the merge of every sealed pane. After [`finish`],
    /// byte-identical to the [`caraoke_city::reference`] fold of the same
    /// reports.
    ///
    /// [`finish`]: LiveCity::finish
    pub fn totals(&self) -> CityAggregates {
        self.core.sealed.lock().expect("sealed state").total.clone()
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> LiveStats {
        let core = &*self.core;
        // Read the floor before the watermark so the reported pair always
        // satisfies `seal_floor_us <= watermark_us`.
        let seal_floor_us = core.seal_floor_us.load(Ordering::Acquire);
        let (buffered, worker_slots): (usize, u64) = {
            let workers = core.workers.lock().expect("worker registry");
            let buffered = workers
                .iter()
                .map(|slot| slot.buf.lock().expect("worker buffer").len)
                .sum();
            (buffered, workers.len() as u64)
        };
        let orphaned: usize = {
            let orphans = core.orphans.lock().expect("orphan buffers");
            orphans.iter().map(|buf| buf.len).sum()
        };
        let buffered = buffered + orphaned;
        let sealed = core.sealed.lock().expect("sealed state");
        let mut alias = AliasStats::default();
        for tracker in &sealed.trackers {
            alias.merge(&tracker.alias_stats());
        }
        LiveStats {
            reports: core.reports.load(Ordering::Relaxed),
            observations: sealed.total.observations,
            shed_reports: core.shed_reports.load(Ordering::Relaxed),
            rejected_reports: core.rejected_reports.load(Ordering::Relaxed),
            shed_observations: core.shed_observations.load(Ordering::Relaxed),
            overflow_shed: core.overflow_shed.load(Ordering::Relaxed),
            buffered_observations: buffered as u64,
            sealed_panes: sealed.next_pane,
            watermark_us: core.clock.watermark_us(),
            seal_floor_us,
            forced_panes: core.forced_panes.load(Ordering::Relaxed),
            forced_pole_misses: core.forced_pole_misses.load(Ordering::Relaxed),
            worker_slots,
            dead_poles: core.dead_poles.load(Ordering::Relaxed),
            log_retries: core.log_retries.load(Ordering::Relaxed),
            log_errors_transient: core.log_errors_transient.load(Ordering::Relaxed),
            log_errors_fatal: core.log_errors_fatal.load(Ordering::Relaxed),
            compacted_tags: core.compacted_tags.load(Ordering::Relaxed),
            alias,
        }
    }

    /// Read access to the sealed-window state for the query layer.
    pub(crate) fn with_sealed<R>(
        &self,
        f: impl FnOnce(&WindowRing<CityAggregates>, &CityAggregates, u64) -> R,
    ) -> R {
        let sealed = self.core.sealed.lock().expect("sealed state");
        f(&sealed.ring, &sealed.total, sealed.next_pane)
    }

    /// Like [`with_sealed`](Self::with_sealed), but first blocks (up to
    /// `timeout`) until a pane past `cursor` has been sealed — the engine
    /// half of [`crate::LiveSubscription::wait_next`]. Wakes on every seal.
    pub(crate) fn wait_sealed_past<R>(
        &self,
        cursor: u64,
        timeout: Duration,
        f: impl FnOnce(&WindowRing<CityAggregates>, &CityAggregates, u64) -> R,
    ) -> R {
        let core = &*self.core;
        let deadline = Instant::now() + timeout;
        let mut sealed = core.sealed.lock().expect("sealed state");
        while sealed.next_pane <= cursor {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = core
                .pane_sealed
                .wait_timeout(sealed, deadline - now)
                .expect("sealed state");
            sealed = guard;
        }
        f(&sealed.ring, &sealed.total, sealed.next_pane)
    }
}

impl Drop for LiveCity {
    fn drop(&mut self) {
        {
            let mut sig = self.core.signal.lock().expect("sealer signal");
            sig.shutdown = true;
            self.core.seal_wake.notify_one();
        }
        if let Some(handle) = self.sealer.lock().expect("sealer handle").take() {
            let _ = handle.join();
        }
    }
}

impl LiveCore {
    /// The calling thread's worker slot for this engine, creating and
    /// registering it on first use. The fast path is a thread-local lookup;
    /// the registry lock is only taken on registration.
    fn worker_slot(&self) -> Arc<WorkerSlot> {
        WORKER_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some((_, slot)) = slots.iter().find(|(id, _)| *id == self.engine_id) {
                return Arc::clone(slot);
            }
            let slot = Arc::new(WorkerSlot::default());
            self.workers
                .lock()
                .expect("worker registry")
                .push(Arc::clone(&slot));
            // Prune entries whose engine is gone (its registry was the only
            // other strong ref), so long sessions over many engines do not
            // accumulate dead buffers.
            slots.retain(|(_, s)| Arc::strong_count(s) > 1);
            slots.push((self.engine_id, Arc::clone(&slot)));
            slot
        })
    }

    /// See [`LiveCity::unregister_worker`].
    fn unregister_worker(&self) {
        let slot = WORKER_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            let idx = slots.iter().position(|(id, _)| *id == self.engine_id)?;
            Some(slots.swap_remove(idx).1)
        });
        let Some(slot) = slot else { return };
        // Serialize the whole hand-off against the sealer: `seal_up_to`
        // holds the sealed-state lock across its entire drain + orphan
        // pass, so taking it here guarantees the registry removal, the
        // buffer take and the orphan push land either wholly before or
        // wholly after any seal. Without it, a seal could drain the
        // (already-emptied) slot and the orphan list before our push
        // landed — stranding released-pane observations until the *next*
        // seal misclassifies them as late and sheds in-contract data.
        // Lock order (sealed → workers → worker buffer → orphans) matches
        // the sealer's own order, so this cannot deadlock.
        let _sealed = self.sealed.lock().expect("sealed state");
        self.workers
            .lock()
            .expect("worker registry")
            .retain(|s| !Arc::ptr_eq(s, &slot));
        let buf = std::mem::take(&mut *slot.buf.lock().expect("worker buffer"));
        if !buf.is_empty() {
            self.orphans.lock().expect("orphan buffers").push(buf);
        }
    }

    fn ingest(&self, report: &PoleReport) -> IngestOutcome {
        // Validate before anything keys per-pole state: the watermark clock
        // and the sealer's fold index the directory by pole id.
        if report.pole.0 as usize >= self.directory.len()
            || report
                .observations
                .iter()
                .any(|obs| obs.pole != report.pole)
        {
            self.rejected_reports.fetch_add(1, Ordering::Relaxed);
            return IngestOutcome::Rejected;
        }
        let floor = self.seal_floor_us.load(Ordering::Acquire);
        if report.timestamp_us < floor {
            self.shed_reports.fetch_add(1, Ordering::Relaxed);
            self.shed_observations
                .fetch_add(report.len() as u64, Ordering::Relaxed);
            return IngestOutcome::ShedLate;
        }
        let pane = report.timestamp_us / self.config.pane_us;
        let max_pending = self.config.max_pending_per_worker;
        let slot = self.worker_slot();
        let mut shed = 0u64;
        let mut overflow = 0u64;
        {
            let mut buf = slot.buf.lock().expect("worker buffer");
            let mut multi = 0u32;
            for (seq, obs) in report.observations.iter().enumerate() {
                if obs.multi_occupied {
                    multi += 1;
                }
                if obs.timestamp_us < floor {
                    shed += 1;
                } else if buf.len >= max_pending {
                    overflow += 1;
                } else {
                    // Bucketed by the *observation's* pane (a report near a
                    // boundary can straddle two), so the seal moves whole
                    // buckets without re-classifying anything.
                    let bucket = buf.bucket(obs.timestamp_us / self.config.pane_us);
                    bucket.keys.push(SealKey {
                        timestamp_us: obs.timestamp_us,
                        tag: obs.tag.0,
                        pole: obs.pole.0,
                        cfo_bin: obs.cfo_bin,
                        shard: caraoke_city::store::shard_of_bin(obs.cfo_bin, self.n_shards) as u32,
                        seq: seq as u32,
                    });
                    bucket.obs.push(*obs);
                    buf.len += 1;
                }
            }
            buf.seg.record(
                pane,
                report.segment.0,
                report.count,
                report.observations.len() as u32,
                multi,
            );
        }
        if shed > 0 {
            self.shed_observations.fetch_add(shed, Ordering::Relaxed);
        }
        if overflow > 0 {
            self.overflow_shed.fetch_add(overflow, Ordering::Relaxed);
        }
        self.reports.fetch_add(1, Ordering::Relaxed);

        // Feed the watermark last: by the time a boundary completes, every
        // in-contract observation at or below it is already buffered (this
        // thread's pushes are ordered before its clock credit, and the
        // boundary needs every pole's credit to complete).
        if let Some(completed) = self.clock.observe(report.pole, report.timestamp_us) {
            let target = completed.saturating_sub(self.config.lateness_panes);
            if target > 0 {
                self.request_seal(target);
            }
        }
        IngestOutcome::Applied
    }

    /// Runs one logical pane-log write with the configured bounded
    /// exponential-backoff retry. Transient errors (see
    /// [`transient_io_error`]) sleep and retry up to
    /// `log_retry.max_attempts` total tries; anything else — or exhausted
    /// retries — latches the sink failed. Returns whether the write landed.
    /// A no-op returning `false` when the sink is already failed.
    fn log_write(
        &self,
        sink: &mut LogSink,
        what: &str,
        mut op: impl FnMut(&mut SegmentWriter) -> io::Result<()>,
    ) -> bool {
        if sink.failed {
            return false;
        }
        let policy = self.config.log_retry;
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match op(&mut sink.writer) {
                Ok(()) => return true,
                Err(err) if transient_io_error(&err) && attempt + 1 < attempts => {
                    self.log_errors_transient.fetch_add(1, Ordering::Relaxed);
                    self.log_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                Err(err) => {
                    if transient_io_error(&err) {
                        self.log_errors_transient.fetch_add(1, Ordering::Relaxed);
                    }
                    sink.failed = true;
                    self.log_errors_fatal.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "caraoke-live: pane log {what} failed; \
                         appends disabled until reattach_log: {err}"
                    );
                    return false;
                }
            }
        }
    }

    /// Raises the sealer's target and wakes it. Called once per watermark
    /// advance (not per report), so the signal lock is cold.
    fn request_seal(&self, target: u64) {
        let mut sig = self.signal.lock().expect("sealer signal");
        if target > sig.target {
            sig.target = target;
            self.seal_wake.notify_one();
        }
    }

    /// The sealer thread: sleep until the watermark releases new panes (or
    /// shutdown), then seal them. Outstanding work is drained before a
    /// shutdown exit, so `Drop` after `finish` never abandons panes.
    ///
    /// With [`LiveConfig::max_pane_staleness`] set, the wait is bounded:
    /// when it expires with panes still waiting on a stalled watermark (a
    /// pole died mid-run), the sealer force-seals every pane the fastest
    /// pole has fully elapsed, counting the poles that missed each one.
    fn sealer_loop(&self) {
        let mut sealed_to = 0u64;
        loop {
            // `None` = the staleness timer fired with no new target.
            let target = {
                let mut sig = self.signal.lock().expect("sealer signal");
                loop {
                    if sig.target > sealed_to {
                        break Some(sig.target);
                    }
                    if sig.shutdown {
                        return;
                    }
                    match self.config.max_pane_staleness {
                        None => sig = self.seal_wake.wait(sig).expect("sealer signal"),
                        Some(staleness) => {
                            let (guard, timeout) = self
                                .seal_wake
                                .wait_timeout(sig, staleness)
                                .expect("sealer signal");
                            sig = guard;
                            if timeout.timed_out() {
                                break None;
                            }
                        }
                    }
                }
            };
            match target {
                Some(target) => {
                    self.seal_up_to(target, false);
                    sealed_to = sealed_to.max(target);
                }
                None => {
                    if let Some(forced) = self.force_seal_stale() {
                        sealed_to = sealed_to.max(forced);
                    }
                }
            }
        }
    }

    /// Wall-clock staleness path: seal every pane the fastest pole's
    /// frontier has fully elapsed, even though the watermark (held back by
    /// a stalled pole) has not released them. Returns the new seal target
    /// when anything was forced. Runs on the sealer thread only.
    fn force_seal_stale(&self) -> Option<u64> {
        let pane_us = self.config.pane_us;
        let force = self.clock.max_frontier_us() / pane_us;
        let next_pane = self.sealed.lock().expect("sealed state").next_pane;
        if force <= next_pane {
            return None;
        }
        self.seal_up_to(force, true);
        Some(force)
    }

    /// Seals every pane below `target` (exclusive), in pane order. Runs on
    /// the sealer thread only. Each chunk of at most
    /// `MAX_SEAL_BUCKETS / shards` panes runs the four seal stages in turn
    /// — [`drain`](Self::drain), [`SealScratch::sort`],
    /// [`fold`](Self::fold), [`publish`](Self::publish) — so a laggard span
    /// of 100k panes seals in bounded bucket tables instead of one huge
    /// one. `forced` marks staleness-path seals (see `publish`).
    fn seal_up_to(&self, target: u64, forced: bool) {
        let mut sealed = self.sealed.lock().expect("sealed state");
        let chunk = (MAX_SEAL_BUCKETS / self.n_shards).max(1) as u64;
        while sealed.next_pane < target {
            let state = &mut *sealed;
            let first_pane = state.next_pane;
            let end = target.min(first_pane + chunk);
            let span = (end - first_pane) as usize;
            let seg_panes = self.drain(&mut state.scratch, first_pane, end);
            state
                .scratch
                .sort(first_pane, span, self.n_shards, self.config.pane_us);
            let parts = self.fold(&mut state.trackers, &state.scratch, first_pane, span);
            state.scratch.clear();
            self.publish(state, parts, seg_panes, first_pane, forced);
        }
        drop(sealed);
        self.pane_sealed.notify_all();
    }

    /// Seal stage 1: moves every buffered observation of the panes
    /// `first_pane..end` out of the worker slots (and decommissioned
    /// workers' orphan buffers) into `scratch`, returning those panes'
    /// report-level segment rows.
    ///
    /// Each slot is drained once: every pane bucket below `end` moves to
    /// the scratch wholesale (bucket order within a pane preserves arrival
    /// order, which is what keeps ties among equal canonical keys
    /// deterministic), and the buffered tail ahead of the frontier is never
    /// touched. No in-contract delivery can add observations below
    /// `end * pane_us` concurrently: the watermark only released `end`
    /// because every pole's frontier already passed it (see `ingest`). A
    /// racing out-of-contract push can leave observations below an
    /// already-sealed pane in a buffer; those buckets (and their segment
    /// rows) are counted as shed here, never merged.
    fn drain(&self, scratch: &mut SealScratch, first_pane: u64, end: u64) -> SegRows {
        let slots: Vec<Arc<WorkerSlot>> = self.workers.lock().expect("worker registry").clone();
        let mut seg_panes = SegRows::new();
        let mut shed_late = 0u64;
        let mut drain_buf = |buf: &mut WorkerBuf| {
            let cut = buf.panes.partition_point(|b| b.pane < end);
            for mut bucket in buf.panes.drain(..cut) {
                buf.len -= bucket.keys.len();
                if bucket.pane < first_pane {
                    shed_late += bucket.keys.len() as u64;
                } else {
                    scratch.keys.extend_from_slice(&bucket.keys);
                    scratch.obs.extend_from_slice(&bucket.obs);
                }
                bucket.keys.clear();
                bucket.obs.clear();
                buf.spare.push(bucket);
            }
            buf.seg.drain_below(end, |pane, seg, stats| {
                if pane >= first_pane {
                    seg_panes.entry(pane).or_default().push((seg, stats));
                }
            });
        };
        for slot in &slots {
            drain_buf(&mut slot.buf.lock().expect("worker buffer"));
        }
        {
            // Fully drained orphan buffers are freed.
            let mut orphans = self.orphans.lock().expect("orphan buffers");
            for buf in orphans.iter_mut() {
                drain_buf(buf);
            }
            orphans.retain(|buf| !buf.is_empty());
        }
        if shed_late > 0 {
            self.shed_observations
                .fetch_add(shed_late, Ordering::Relaxed);
        }
        seg_panes
    }

    /// Seal stage 3: applies every drained observation, in canonical order,
    /// to its shard's tracker, folding derived events into per-pane partial
    /// aggregates (see [`pool_apply`](Self::pool_apply)). With
    /// [`LiveConfig::seal_pool`] > 1 the shard ranges fold on that many
    /// scoped threads, each owning a contiguous range (`split_at_mut` over
    /// the tracker vector — no locks, no cloning); a pool of 1, or an empty
    /// batch, folds inline on the sealer thread. Returns the parts in shard
    /// order.
    fn fold(
        &self,
        trackers: &mut [TagTracker],
        scratch: &SealScratch,
        first_pane: u64,
        span: usize,
    ) -> Vec<PoolPart> {
        // The sink set is stable for the whole batch: `reattach_log` takes
        // the sealed lock, which the caller holds.
        let want_deltas = self.log.lock().expect("log sink").is_some();
        let pool = self.config.seal_pool.clamp(1, self.n_shards);
        if pool == 1 || scratch.order.is_empty() {
            return vec![self.pool_apply(trackers, 0, first_pane, span, scratch, want_deltas)];
        }
        let base = self.n_shards / pool;
        let rem = self.n_shards % pool;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(pool);
            let mut rest = trackers;
            let mut shard_lo = 0usize;
            for w in 0..pool {
                let take = base + usize::from(w < rem);
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let lo = shard_lo;
                shard_lo += take;
                handles.push(scope.spawn(move || {
                    self.pool_apply(head, lo, first_pane, span, scratch, want_deltas)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("tracker pool worker"))
                .collect()
        })
    }

    /// One fold pass over a contiguous shard range: walk every pane's
    /// buckets for the owned shards in canonical order, folding
    /// observations and derived events into a sparse per-pane partial
    /// aggregate, sweeping idle-tag compaction at the end of every due pane
    /// and — when a pane log is attached — draining each owned shard's
    /// delta per pane, in shard order. Compaction runs *before* the pane's
    /// delta is taken, so traced evictions ride that pane's delta as
    /// removals and any snapshot exports the already-compacted state; the
    /// cutoff is a pure function of the pane index, so equal runs compact
    /// identically for any pool size.
    fn pool_apply(
        &self,
        trackers: &mut [TagTracker],
        shard_lo: usize,
        first_pane: u64,
        span: usize,
        scratch: &SealScratch,
        want_deltas: bool,
    ) -> PoolPart {
        let n_shards = self.n_shards;
        let mut part = PoolPart {
            aggs: Vec::with_capacity(span),
            deltas: Vec::with_capacity(if want_deltas { span } else { 0 }),
            evicted: 0,
        };
        for pane_idx in 0..span {
            let pane = first_pane + pane_idx as u64;
            let mut agg: Option<Box<CityAggregates>> = None;
            for (k, tracker) in trackers.iter_mut().enumerate() {
                let b = pane_idx * n_shards + shard_lo + k;
                let range = scratch.offsets[b] as usize..scratch.offsets[b + 1] as usize;
                if range.is_empty() {
                    continue;
                }
                let agg = agg.get_or_insert_with(|| Box::new(CityAggregates::new()));
                let bucket = &scratch.order[range];
                for (n, &i) in bucket.iter().enumerate() {
                    if let Some(&j) = bucket.get(n + FOLD_PREFETCH_AHEAD) {
                        prefetch_obs(&scratch.obs[j as usize]);
                    }
                    if let Some(&j) = bucket.get(n + TRACKER_PREFETCH_AHEAD) {
                        tracker.prefetch(&scratch.obs[j as usize]);
                    }
                    fold_observation(
                        agg,
                        tracker,
                        &scratch.obs[i as usize],
                        &self.directory,
                        &self.config.store,
                    );
                }
            }
            if let Some(cutoff) = self.compaction_cutoff(pane) {
                part.evicted += trackers
                    .iter_mut()
                    .map(|t| t.evict_idle(cutoff))
                    .sum::<u64>();
            }
            if want_deltas {
                part.deltas
                    .push(trackers.iter_mut().map(TagTracker::take_delta).collect());
            }
            part.aggs.push(agg);
        }
        part
    }

    /// Seal stage 4: assembles each pane of the chunk from its partials —
    /// the first non-empty partial moves into place and the rest merge in
    /// shard order (every aggregate is an integer counter, so the result is
    /// byte-identical for any pool size) — plus its segment rows, chains
    /// its fingerprint, appends it to the pane log, and makes it queryable.
    /// Ends with one fsync-policy commit for the chunk.
    ///
    /// Durability before visibility: each pane record (and any due
    /// snapshot) is appended while the caller still holds the sealed lock,
    /// before the pane enters the ring or moves the seal floor. Transient
    /// write errors retry in place; a fatal error flips the sink to failed
    /// — sealing continues, appends stop (liveness over durability), and
    /// the log on disk stays a valid prefix until `reattach_log`.
    ///
    /// `forced` marks staleness-path seals: each pane is counted as forced
    /// with its per-pane pole-miss count — telemetry the pane log persists
    /// so replay is faithful. (Racy against a pole reviving this instant —
    /// its data still seals correctly; only the miss count can
    /// over-report.)
    fn publish(
        &self,
        state: &mut SealedState,
        mut parts: Vec<PoolPart>,
        mut seg_panes: SegRows,
        first_pane: u64,
        forced: bool,
    ) {
        let pane_us = self.config.pane_us;
        let evicted: u64 = parts.iter().map(|p| p.evicted).sum();
        if evicted > 0 {
            self.compacted_tags.fetch_add(evicted, Ordering::Relaxed);
        }
        let mut log = self.log.lock().expect("log sink");
        for pane_idx in 0..parts[0].aggs.len() {
            let pane = first_pane + pane_idx as u64;
            // Moving the first partial (instead of merging it into a fresh
            // aggregate) keeps the one-part inline fold as cheap as a
            // direct fold.
            let mut partials = parts.iter_mut().filter_map(|p| p.aggs[pane_idx].take());
            let mut agg = partials
                .next()
                .map_or_else(CityAggregates::new, |first| *first);
            for partial in partials {
                agg.merge(&partial);
            }
            if let Some(rows) = seg_panes.remove(&pane) {
                for (seg, stats) in rows {
                    agg.segments.entry(seg).or_default().merge(&stats);
                }
            }
            let pole_misses = if forced {
                self.forced_panes.fetch_add(1, Ordering::Relaxed);
                let misses = self.clock.poles_behind((pane + 1) * pane_us) as u64;
                self.forced_pole_misses.fetch_add(misses, Ordering::Relaxed);
                misses as u32
            } else {
                0
            };
            let fingerprint = agg.fingerprint64();
            state.chain.write_u64(pane);
            state.chain.write_u64(fingerprint);
            state.total.merge(&agg);
            if let Some(sink) = log.as_mut() {
                let chain_now = state.chain.finish();
                let deltas: Vec<TrackerDelta> = parts
                    .iter_mut()
                    .flat_map(|p| p.deltas[pane_idx].drain(..))
                    .collect();
                // Pane and snapshot retry as *separate* logical writes: a
                // transient snapshot failure must not re-append the
                // (already written) pane record.
                let pane_ok = self.log_write(sink, "pane append", |w| {
                    w.append_pane(
                        pane,
                        forced,
                        pole_misses,
                        fingerprint,
                        chain_now,
                        &agg,
                        &deltas,
                    )
                });
                let due_snapshot = sink.snapshot_every > 0
                    && pane + 1 >= sink.last_snapshot_pane + sink.snapshot_every;
                if pane_ok && due_snapshot {
                    let snap = SnapshotRecord {
                        next_pane: pane + 1,
                        chain: chain_now,
                        forced_panes: self.forced_panes.load(Ordering::Relaxed),
                        forced_pole_misses: self.forced_pole_misses.load(Ordering::Relaxed),
                        dead_poles: self.clock.dead_poles(),
                        total: state.total.clone(),
                        trackers: state.trackers.iter().map(TagTracker::export).collect(),
                    };
                    if self.log_write(sink, "snapshot append", |w| w.append_snapshot(&snap)) {
                        sink.last_snapshot_pane = pane + 1;
                    }
                }
            }
            state.ring.push(pane, agg);
            state.next_pane = pane + 1;
            self.seal_floor_us
                .store((pane + 1) * pane_us, Ordering::Release);
        }
        // One fsync-policy commit per chunk, still under the sealed lock:
        // every pane above is durable (per policy) before any query can
        // observe it.
        if let Some(sink) = log.as_mut() {
            self.log_write(sink, "seal commit", |w| w.commit_seal());
        }
    }

    /// The idle-tag compaction cutoff for `pane`, when a sweep is due after
    /// it: a pure function of the pane index and config.
    fn compaction_cutoff(&self, pane: u64) -> Option<u64> {
        let idle_us = self.config.compact_idle_us?;
        let every = self.config.compact_every_panes.max(1);
        if !(pane + 1).is_multiple_of(every) {
            return None;
        }
        let cutoff = ((pane + 1) * self.config.pane_us).saturating_sub(idle_us);
        (cutoff > 0).then_some(cutoff)
    }
}

/// One fold pass's output: sparse per-pane partial aggregates for its
/// shard range, per-pane tracker deltas (only when a pane log is attached),
/// and its compaction eviction count.
struct PoolPart {
    aggs: Vec<Option<Box<CityAggregates>>>,
    deltas: Vec<Vec<TrackerDelta>>,
    evicted: u64,
}

/// How many bucket slots ahead the fold walk hints the prefetcher. Far
/// enough to cover an L2 miss at ~2.5 cycles/fold-instruction, near enough
/// that the line is still resident when the walk arrives.
const FOLD_PREFETCH_AHEAD: usize = 8;

/// Slots ahead for the tracker state-table hint ([`TagTracker::prefetch`]).
/// Closer than [`FOLD_PREFETCH_AHEAD`]: the hint itself reads the
/// observation row (alias resolution), so it trails the far hint that pulls
/// that row in, and state lines need less lead time than the three-line
/// observation rows.
const TRACKER_PREFETCH_AHEAD: usize = 4;

/// Hints the cache at an upcoming observation row. The fold walk reads the
/// payload column *through the sort permutation*, so consecutive folds land
/// on unrelated cache lines; prefetching a few slots ahead overlaps those
/// misses with the current fold's work. A hint only — no effect on results.
/// (The one `unsafe` in this crate: `_mm_prefetch` has no memory-safety
/// surface — it is a hint and never faults, even on wild addresses.)
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_obs(obs: &TagObservation) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = obs as *const TagObservation as *const i8;
        // A 120-byte row straddles up to three cache lines (the column is
        // packed, so rows are not line-aligned); pull first and last.
        unsafe {
            _mm_prefetch(p, _MM_HINT_T0);
            _mm_prefetch(p.add(64), _MM_HINT_T0);
            _mm_prefetch(
                p.add(std::mem::size_of::<TagObservation>() - 1),
                _MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = obs;
}

/// Folds one observation into a pane aggregate through its shard's tracker
/// — the per-observation hot path of [`LiveCore::pool_apply`].
fn fold_observation(
    agg: &mut CityAggregates,
    tracker: &mut TagTracker,
    obs: &TagObservation,
    directory: &PoleDirectory,
    store: &StoreConfig,
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
    tracker.apply(obs, directory, store, |event| match event {
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

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::PoleSite;
    use caraoke_city::{PoleId, SegmentId, TagKey};
    use caraoke_geom::Vec3;

    fn directory(n: usize) -> PoleDirectory {
        PoleDirectory::new(
            (0..n)
                .map(|i| PoleSite {
                    segment: SegmentId((i / 4) as u16),
                    position: Vec3::new(i as f64 * 30.0, -5.0, 3.8),
                })
                .collect(),
        )
    }

    fn obs(tag: u64, pole: u32, segment: u16, t_us: u64) -> TagObservation {
        TagObservation {
            tag: TagKey(tag),
            pole: PoleId(pole),
            segment: SegmentId(segment),
            cfo_bin: (tag % 615) as u32,
            cfo_hz: (tag % 615) as f64 * 1953.125,
            aoa_rad: 0.0,
            has_aoa: false,
            rssi_db: -40.0,
            timestamp_us: t_us,
            multi_occupied: false,
            decoded: None,
            position: None,
        }
    }

    fn report(pole: u32, segment: u16, t_us: u64, observations: Vec<TagObservation>) -> PoleReport {
        PoleReport {
            pole: PoleId(pole),
            segment: SegmentId(segment),
            timestamp_us: t_us,
            count: observations.len() as u32,
            peaks: observations.len() as u32,
            observations,
        }
    }

    fn tiny_config() -> LiveConfig {
        LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 16,
            ..Default::default()
        }
    }

    #[test]
    fn panes_seal_as_the_watermark_advances() {
        let live = LiveCity::new(directory(2), tiny_config());
        // Pole 0 runs ahead; nothing seals until pole 1 catches up.
        live.ingest(&report(0, 0, 0, vec![obs(1, 0, 0, 0)]));
        live.ingest(&report(0, 0, 2_500_000, vec![obs(1, 0, 0, 2_500_000)]));
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 0);
        // Pole 1 reaches t=2.5 s: panes 0 and 1 seal (watermark 2 s).
        live.ingest(&report(1, 0, 2_500_000, vec![obs(2, 1, 0, 2_500_000)]));
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 2);
        assert_eq!(live.watermark_us(), 2_000_000);
        // Only pane 0's observation is sealed; the t=2.5 s ones are buffered.
        let stats = live.stats();
        assert_eq!(stats.observations, 1);
        assert_eq!(stats.buffered_observations, 2);
        // Flush: everything seals.
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.observations, 3);
        assert_eq!(stats.buffered_observations, 0);
        assert_eq!(stats.sealed_panes, 3);
        assert_eq!(stats.shed_reports, 0);
    }

    #[test]
    fn late_reports_are_counted_and_shed_not_merged() {
        let live = LiveCity::new(directory(2), tiny_config());
        for pole in 0..2u32 {
            for epoch in 0..4u64 {
                let t = epoch * 1_000_000;
                live.ingest(&report(pole, 0, t, vec![obs(10 + pole as u64, pole, 0, t)]));
            }
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 3, "watermark at 3 s");
        let before = live.totals().observations;
        // A straggler from pane 0 arrives after pane 0 sealed: shed.
        let outcome = live.ingest(&report(0, 0, 500_000, vec![obs(99, 0, 0, 500_000)]));
        assert_eq!(outcome, IngestOutcome::ShedLate);
        let stats = live.stats();
        assert_eq!(stats.shed_reports, 1);
        assert_eq!(stats.shed_observations, 1);
        live.finish();
        assert_eq!(
            live.totals().observations,
            before + 2,
            "only the two buffered t=3s observations seal; the straggler never lands"
        );
    }

    #[test]
    fn lateness_allowance_delays_sealing() {
        let mut config = tiny_config();
        config.lateness_panes = 2;
        let live = LiveCity::new(directory(1), config);
        live.ingest(&report(0, 0, 3_500_000, vec![obs(1, 0, 0, 3_500_000)]));
        live.wait_idle();
        // Watermark boundary 3 completed, but 2 panes of slack are held back.
        assert_eq!(live.watermark_us(), 3_000_000);
        assert_eq!(live.sealed_panes(), 1);
        // A not-quite-FIFO arrival inside the allowance still lands.
        let outcome = live.ingest(&report(0, 0, 1_200_000, vec![obs(2, 0, 0, 1_200_000)]));
        assert_eq!(outcome, IngestOutcome::Applied);
        live.finish();
        assert_eq!(live.totals().observations, 2);
        assert_eq!(live.stats().shed_observations, 0);
    }

    #[test]
    fn overflow_beyond_the_bounded_buffer_is_shed_and_counted() {
        let mut config = tiny_config();
        config.max_pending_per_worker = 4;
        config.store.shards = 1;
        let live = LiveCity::new(directory(2), config);
        // Pole 0 floods pane 0 with more observations than the buffer holds
        // (pole 1 never reports, so nothing seals and nothing drains).
        for i in 0..10u64 {
            live.ingest(&report(0, 0, 100 + i, vec![obs(i, 0, 0, 100 + i)]));
        }
        let stats = live.stats();
        assert_eq!(stats.buffered_observations, 4);
        assert_eq!(stats.overflow_shed, 6);
    }

    #[test]
    fn windowed_occupancy_and_flow_come_from_sealed_panes() {
        let mut config = tiny_config();
        config.store.light_cycle_us = 1_000_000; // one cycle per pane
        let live = LiveCity::new(directory(2), config);
        // Two tags walk pole 0 -> 1 across epochs; occupancy reports carry
        // counts.
        for epoch in 0..5u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
        }
        live.finish();
        live.with_sealed(|ring, total, next_pane| {
            assert_eq!(next_pane, 5);
            assert_eq!(ring.len(), 5);
            // Every pane holds two reports and two observations for segment 0.
            for (_, pane_agg) in ring.iter() {
                assert_eq!(pane_agg.segments[&0].reports, 2);
                assert_eq!(pane_agg.observations, 2);
            }
            // Each tag flows once per cycle: 2 tags x 5 cycles.
            assert_eq!(total.flow.total(), 10);
        });
    }

    #[test]
    fn widely_skewed_pole_frontiers_stay_cheap_and_correct() {
        // One thread (one worker slot) hears a pole 100 000 panes ahead of
        // the laggard — far beyond the watermark ring, and a span that
        // would blow up any pane-span-indexed table. The segment table
        // tracks occupied panes only, the clock parks the far credit in
        // its overflow map, and the flush seals the full range.
        let live = LiveCity::new(directory(2), tiny_config());
        let far = 100_000 * 1_000_000u64;
        live.ingest(&report(0, 0, far, vec![obs(1, 0, 0, far)]));
        live.ingest(&report(1, 0, 0, vec![obs(2, 1, 0, 0)]));
        // The laggard catches up: the watermark sweeps the whole span.
        live.ingest(&report(1, 0, far, vec![obs(3, 1, 0, far)]));
        live.wait_idle();
        assert_eq!(live.watermark_us(), far);
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.observations, 3);
        assert_eq!(stats.sealed_panes, 100_001);
        assert_eq!(stats.shed_observations, 0);
        assert_eq!(stats.overflow_shed, 0);
    }

    /// The reference fold of `reports` under `config`.
    fn oracle(
        dir: &PoleDirectory,
        config: &LiveConfig,
        reports: &[PoleReport],
    ) -> (u64, CityAggregates) {
        let run = caraoke_city::reference::fold(dir, &config.store, config.pane_us, reports);
        (run.chain(), run.totals())
    }

    #[test]
    fn long_laggard_spans_seal_in_chunks_equal_to_the_reference() {
        // Pole 0 reports every 7th pane out to pane 10 000 while pole 1
        // stays at pane 0; pole 1's catch-up then releases the whole span
        // in one seal target. With 16 shards that is three chunks of at
        // most 4 096 panes, each holding data — and the chain (the empty
        // panes between reports included) and totals must equal the
        // reference fold.
        let dir = directory(2);
        let mut reports = vec![report(1, 0, 0, vec![obs(1, 1, 0, 0)])];
        for pane in (0..10_000u64).step_by(7) {
            let t = pane * 1_000_000 + 500_000;
            let tags = [2 + pane % 5, 100 + pane % 3];
            reports.push(report(
                0,
                0,
                t,
                tags.iter().map(|&g| obs(g, 0, 0, t)).collect(),
            ));
        }
        let end = 10_000 * 1_000_000;
        reports.push(report(
            1,
            0,
            end,
            vec![obs(2, 1, 0, end), obs(100, 1, 0, end)],
        ));
        for seal_pool in [1, 4] {
            let mut config = tiny_config();
            config.store.shards = 16;
            config.seal_pool = seal_pool;
            let live = LiveCity::new(dir.clone(), config);
            for r in &reports {
                live.ingest(r);
            }
            live.finish();
            let stats = live.stats();
            assert_eq!(stats.sealed_panes, 10_001);
            assert_eq!(stats.shed_observations + stats.overflow_shed, 0);
            let (chain, totals) = oracle(&dir, &config, &reports);
            assert!(
                totals.od.total() > 0,
                "the catch-up must produce transitions"
            );
            assert_eq!(live.totals(), totals, "pool {seal_pool}");
            assert_eq!(live.fingerprint_chain(), chain, "pool {seal_pool}");
        }
    }

    #[test]
    fn staleness_timeout_force_seals_and_counts_missing_poles() {
        let mut config = tiny_config();
        config.max_pane_staleness = Some(Duration::from_millis(25));
        let live = LiveCity::new(directory(2), config);
        // Pole 0 reports through t = 3.5 s; pole 1 is dead, so the
        // event-time watermark is stuck at 0 forever.
        for t in [0u64, 1_000_000, 2_000_000, 3_500_000] {
            live.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
        }
        assert_eq!(live.watermark_us(), 0);
        // The sealer's staleness timer must fire and seal every pane the
        // live pole has fully elapsed (panes 0-2; t = 3.5 s stays open).
        let deadline = Instant::now() + Duration::from_secs(20);
        while live.sealed_panes() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = live.stats();
        assert_eq!(stats.sealed_panes, 3, "stale panes must force-seal");
        assert_eq!(stats.forced_panes, 3);
        assert_eq!(
            stats.forced_pole_misses, 3,
            "the dead pole missed every forced pane"
        );
        assert_eq!(stats.observations, 3);
        assert_eq!(
            live.watermark_us(),
            0,
            "forcing seals never fakes event time"
        );
        // The dead pole reviving below the forced floor is shed, counted —
        // and never merged into the already-published panes.
        let outcome = live.ingest(&report(1, 0, 500_000, vec![obs(9, 1, 0, 500_000)]));
        assert_eq!(outcome, IngestOutcome::ShedLate);
        let stats = live.stats();
        assert_eq!(stats.shed_reports, 1);
        assert_eq!(stats.shed_observations, 1);
    }

    #[test]
    fn unregister_worker_frees_the_slot_and_keeps_its_data() {
        let live = LiveCity::new(directory(1), tiny_config());
        std::thread::scope(|scope| {
            let live = &live;
            scope
                .spawn(move || {
                    live.ingest(&report(0, 0, 0, vec![obs(1, 0, 0, 0)]));
                    live.ingest(&report(0, 0, 500_000, vec![obs(2, 0, 0, 500_000)]));
                    assert_eq!(live.stats().worker_slots, 1);
                    live.unregister_worker();
                    assert_eq!(live.stats().worker_slots, 0, "slot decommissioned");
                    // Double-unregister is a no-op.
                    live.unregister_worker();
                    // A decommissioned thread can come back: fresh slot.
                    live.ingest(&report(0, 0, 1_200_000, vec![obs(3, 0, 0, 1_200_000)]));
                    assert_eq!(live.stats().worker_slots, 1);
                    live.unregister_worker();
                })
                .join()
                .expect("ingest thread");
        });
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.worker_slots, 0);
        assert_eq!(
            live.totals().observations,
            3,
            "orphaned buffers seal like live slots"
        );
        assert_eq!(stats.shed_observations, 0);
        assert_eq!(stats.overflow_shed, 0);
        assert_eq!(stats.buffered_observations, 0);
    }

    /// Fresh scratch directory for log tests (unit tests have no
    /// `CARGO_TARGET_TMPDIR`).
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("caraoke-live-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn with_log_writes_a_replayable_chain_equal_log() {
        let dir = scratch_dir("with-log");
        let live = LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default())
            .expect("create logged engine");
        for epoch in 0..5u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t), obs(9, 1, 0, t)]));
        }
        live.finish();
        let chain = live.fingerprint_chain();
        let totals = live.totals();
        assert_eq!(live.stats().log_errors_fatal, 0);
        drop(live);
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, chain, "replay chain == live chain");
        assert_eq!(replay.totals, totals, "replay totals byte-identical");
        assert_eq!(replay.panes, 5);
        // A second engine on the same directory must refuse, not clobber.
        assert!(
            LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default()).is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resumes_byte_identical_to_an_uninterrupted_run() {
        let deliver = |live: &LiveCity, from_us: u64| {
            for epoch in 0..6u64 {
                let t = epoch * 1_000_000;
                if t < from_us {
                    continue;
                }
                live.ingest(&report(0, 0, t, vec![obs(40 + epoch, 0, 0, t)]));
                live.ingest(&report(1, 0, t, vec![obs(41, 1, 0, t)]));
            }
        };
        // Reference: one uninterrupted logged run.
        let ref_dir = scratch_dir("recover-ref");
        let reference =
            LiveCity::with_log(directory(2), tiny_config(), &ref_dir, LogOptions::default())
                .expect("reference engine");
        deliver(&reference, 0);
        reference.finish();
        let ref_chain = reference.fingerprint_chain();
        let ref_totals = reference.totals();
        drop(reference);

        // Crashed run: same stream, killed mid-flight (drop without
        // finish), then recovered and re-fed from the seal floor.
        let dir = scratch_dir("recover-crash");
        let crashed = LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default())
            .expect("crashed engine");
        deliver(&crashed, 0);
        drop(crashed); // "crash": sealer drains its outstanding target and stops.
        let recovered = LiveCity::recover(&dir, directory(2), tiny_config(), LogOptions::default())
            .expect("recover from pane log");
        let floor_us = recovered.stats().seal_floor_us;
        assert!(floor_us > 0, "the crashed run sealed at least one pane");
        // Exactly-once resume: everything at or above the floor again.
        deliver(&recovered, floor_us);
        recovered.finish();
        assert_eq!(recovered.fingerprint_chain(), ref_chain);
        assert_eq!(recovered.totals(), ref_totals);
        assert_eq!(recovered.stats().log_errors_fatal, 0);
        drop(recovered);
        // The stitched log replays to the same chain, too.
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, ref_chain);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn idle_tag_compaction_bounds_tracker_state_and_replays_equal() {
        let dir = scratch_dir("compact");
        let mut config = tiny_config();
        config.compact_idle_us = Some(2_000_000);
        config.compact_every_panes = 2;
        let live = LiveCity::with_log(directory(2), config, &dir, LogOptions::default())
            .expect("logged engine");
        // 20 one-shot tags at t=0 age out; two walkers stay resident.
        live.ingest(&report(
            0,
            0,
            0,
            (0..20).map(|i| obs(100 + i, 0, 0, 0)).collect(),
        ));
        for epoch in 0..8u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
        }
        live.finish();
        assert_eq!(
            live.stats().compacted_tags,
            20,
            "every one-shot tag evicted, both walkers kept"
        );
        let chain = live.fingerprint_chain();
        let totals = live.totals();
        drop(live);
        // The compacted log still verifies and replays byte-identical…
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, chain);
        assert_eq!(replay.totals, totals);
        // …and a delta-by-delta rebuild lands on the *compacted* tracker
        // state: evictions rode the pane deltas as removals.
        let state =
            recover_state(&dir, config.store.shards, config.retain_panes).expect("recover state");
        let tracked: usize = state.trackers.iter().map(TagTracker::distinct_tags).sum();
        assert_eq!(tracked, 2, "replayed state is the compacted state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_with_compaction_matches_uninterrupted_run() {
        let mut config = tiny_config();
        config.compact_idle_us = Some(1_500_000);
        config.compact_every_panes = 2;
        let deliver = |live: &LiveCity, from_us: u64| {
            for epoch in 0..8u64 {
                let t = epoch * 1_000_000;
                if t < from_us {
                    continue;
                }
                // A fresh one-shot tag per epoch keeps the sweeps busy; the
                // walkers stay resident across every cutoff.
                live.ingest(&report(
                    0,
                    0,
                    t,
                    vec![obs(7, 0, 0, t), obs(200 + epoch, 0, 0, t)],
                ));
                live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
            }
        };
        let ref_dir = scratch_dir("compact-ref");
        let reference = LiveCity::with_log(directory(2), config, &ref_dir, LogOptions::default())
            .expect("reference engine");
        deliver(&reference, 0);
        reference.finish();
        let ref_chain = reference.fingerprint_chain();
        let ref_totals = reference.totals();
        assert!(
            reference.stats().compacted_tags > 0,
            "compaction actually ran"
        );
        drop(reference);

        // Crash mid-run, recover, re-feed from the seal floor: compaction
        // cutoffs are pane-deterministic, so the stitched run converges to
        // the uninterrupted chain.
        let dir = scratch_dir("compact-crash");
        let crashed = LiveCity::with_log(directory(2), config, &dir, LogOptions::default())
            .expect("crashed engine");
        deliver(&crashed, 0);
        drop(crashed);
        let recovered = LiveCity::recover(&dir, directory(2), config, LogOptions::default())
            .expect("recover from pane log");
        let floor_us = recovered.stats().seal_floor_us;
        assert!(floor_us > 0, "the crashed run sealed at least one pane");
        deliver(&recovered, floor_us);
        recovered.finish();
        assert_eq!(recovered.fingerprint_chain(), ref_chain);
        assert_eq!(recovered.totals(), ref_totals);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn declaring_a_pole_dead_resumes_sealing_and_is_logged() {
        let dir = scratch_dir("dead-pole");
        let live = LiveCity::with_log(directory(3), tiny_config(), &dir, LogOptions::default())
            .expect("logged engine");
        // Poles 0 and 1 run to t = 4 s; pole 2 stalls at t = 0.
        live.ingest(&report(2, 0, 0, vec![obs(3, 2, 0, 0)]));
        for pole in 0..2u32 {
            for epoch in 0..5u64 {
                let t = epoch * 1_000_000;
                live.ingest(&report(pole, 0, t, vec![obs(pole as u64, pole, 0, t)]));
            }
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 0, "stalled pole blocks the watermark");
        assert!(live.declare_pole_dead(PoleId(2)));
        assert!(!live.declare_pole_dead(PoleId(2)), "already dead");
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 4, "quorum shrinks; sealing resumes");
        let stats = live.stats();
        assert_eq!(stats.dead_poles, 1);
        assert_eq!(stats.forced_panes, 0, "event-time seals, not forced");
        live.finish();
        let chain = live.fingerprint_chain();
        assert_eq!(
            live.totals().observations,
            11,
            "the dead pole's pre-stall observation still sealed"
        );
        drop(live);
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.dead_poles, vec![2], "declaration is in the log");
        assert_eq!(replay.chain, chain);
        // Recovery keeps the pole dead: the two live poles alone advance
        // event time.
        let recovered = LiveCity::recover(&dir, directory(3), tiny_config(), LogOptions::default())
            .expect("recover");
        assert_eq!(recovered.stats().dead_poles, 1);
        let floor_us = recovered.stats().seal_floor_us;
        for pole in 0..2u32 {
            let t = floor_us + 1_000_000;
            recovered.ingest(&report(pole, 0, t, vec![obs(pole as u64, pole, 0, t)]));
        }
        recovered.wait_idle();
        assert!(
            recovered.sealed_panes() > floor_us / 1_000_000,
            "watermark advances without the dead pole"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_reports_are_rejected_and_never_reach_the_sealer() {
        use caraoke_city::{FrameSource, SyntheticCity};
        let source = SyntheticCity::new(8, 6, 4);
        let config = LiveConfig::default();
        let run = |bad: &[PoleReport]| {
            let live = LiveCity::new(source.directory().clone(), config);
            for epoch in 0..source.epochs() {
                for pole in 0..8 {
                    live.ingest(&source.report(pole, epoch));
                }
                if epoch == 2 {
                    for report in bad {
                        assert_eq!(live.ingest(report), IngestOutcome::Rejected);
                    }
                }
            }
            live.finish();
            (live.fingerprint_chain(), live.totals(), live.stats())
        };
        // One observation naming a pole outside the directory (it used to
        // panic the sealer), and a report from a pole the directory lacks.
        let mut stray = source.report(3, 2);
        stray.observations[0].pole = PoleId(999);
        let mut unknown = source.report(5, 2);
        unknown.pole = PoleId(999);
        for obs in &mut unknown.observations {
            obs.pole = PoleId(999);
        }
        let (clean_chain, clean_totals, _) = run(&[]);
        let (chain, totals, stats) = run(&[stray, unknown]);
        assert_eq!(stats.rejected_reports, 2);
        assert_eq!(
            stats.reports,
            8 * 6,
            "rejected reports are not counted as accepted"
        );
        assert_eq!(chain, clean_chain, "as if the bad reports were never sent");
        assert_eq!(totals, clean_totals);
    }

    #[test]
    fn a_worker_buffer_outlives_interleaved_engines() {
        // One thread alternates ingesting into two engines: each engine
        // must keep its own worker buffer (no cross-talk), and both runs
        // must still produce their full totals.
        let a = LiveCity::new(directory(1), tiny_config());
        let b = LiveCity::new(directory(1), tiny_config());
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            a.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
            b.ingest(&report(0, 0, t, vec![obs(2, 0, 0, t), obs(3, 0, 0, t)]));
        }
        a.finish();
        b.finish();
        assert_eq!(a.totals().observations, 3);
        assert_eq!(b.totals().observations, 6);
    }
}
