//! Event-time watermark tracking.
//!
//! The live engine's notion of "now" is an **event-time low watermark**, the
//! discipline streaming analytics systems use for out-of-order input: every
//! pole's reports carry monotone timestamps, the clock tracks each pole's
//! *frontier* (latest timestamp heard from it), and the watermark is the
//! largest pane boundary that **every** pole's frontier has passed. Once the
//! watermark passes a pane, no in-contract delivery can add observations to
//! it, so the pane can be sealed — aggregated, fingerprinted and evicted —
//! deterministically.
//!
//! The contract that makes this cheap and exact: delivery must be **FIFO per
//! pole** (any interleaving *across* poles is fine). Reports that violate it
//! by more than the engine's lateness allowance are counted and shed, never
//! silently merged (see [`crate::engine::LiveCity`]).
//!
//! # Lock-free hot path
//!
//! `observe` is the per-report cost every ingest thread pays, so the clock
//! takes **no lock in the common case**:
//!
//! * each pole's frontier is its own (cache-line padded) atomic, advanced
//!   with `fetch_max` — poles are independent, so ingest threads never
//!   contend on each other's frontiers;
//! * "how many poles have passed boundary `b`" lives in a fixed ring of
//!   atomic counters indexed by `b` modulo the ring size. Per-pole FIFO
//!   delivery means each pole credits each boundary exactly once, so a
//!   counter reaching `n_poles` is a complete boundary; the thread that
//!   observes completion claims it with a single CAS on the **monotone**
//!   `completed` watermark (immune to ABA by construction) and then drains
//!   the boundary's `n_poles` from its slot, recycling it for boundary
//!   `b + ring`;
//! * the largest frontier is a running atomic max (`max_frontier_us` is one
//!   load, not an O(poles) scan — the `finish()` flush reads it once per
//!   run, but telemetry reads it per snapshot).
//!
//! The only lock is an overflow map for boundaries further ahead of the
//! watermark than the ring can address — a pole racing more than
//! `RING_BOUNDARIES` panes ahead of the slowest pole, which steady delivery
//! never does. Credits parked there are folded into the ring as the
//! watermark advances.
//!
//! Complexity: an `observe` costs O(panes crossed by this report), amortized
//! O(1) at a steady report cadence — and no longer serializes ingest threads
//! on a global mutex, which is what lets the watermark keep up with
//! millions of observations per second.

use caraoke_city::PoleId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many open pane boundaries the counter ring can address at once —
/// equivalently, how far (in panes) the fastest pole may run ahead of the
/// watermark before its boundary credits spill to the locked overflow map.
const RING_BOUNDARIES: usize = 256;

/// One pole's frontier on its own cache line, so ingest threads advancing
/// different poles never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PoleFrontier(AtomicU64);

/// Tracks per-pole frontiers and derives the monotone low watermark, in
/// units of fixed-width *panes* (see [`crate::window`]).
#[derive(Debug)]
pub struct WatermarkClock {
    pane_us: u64,
    /// Latest timestamp heard from each pole (µs). Starts at 0, which counts
    /// as "has passed boundary 0": the watermark cannot advance until every
    /// pole has reported.
    frontier: Vec<PoleFrontier>,
    /// Boundary index every pole has passed: `frontier[p] >= completed *
    /// pane_us` for all `p`. The watermark is `completed * pane_us`.
    completed: AtomicU64,
    /// Running max over all frontiers (µs) — how far ahead of the watermark
    /// the fastest pole is, maintained incrementally instead of scanned.
    max_frontier: AtomicU64,
    /// `counts[(b - 1) % RING_BOUNDARIES]` = poles whose frontier has passed
    /// boundary `b`, valid while `completed < b <= completed +
    /// RING_BOUNDARIES`. When boundary `b` completes, its claimer subtracts
    /// `n_poles` from the slot (see `advance`), so credits its next
    /// occupant `b + RING_BOUNDARIES` races in are never lost.
    counts: Vec<AtomicUsize>,
    /// Credits for boundaries beyond the ring horizon (rare); folded into
    /// the ring as `completed` advances. `overflow_len` lets the advance
    /// path skip the lock entirely when the map is empty.
    overflow: Mutex<BTreeMap<u64, usize>>,
    overflow_len: AtomicUsize,
    /// Poles removed from the seal quorum (`declare_dead`). A dead pole's
    /// frontier freezes — its `observe` calls are ignored — and boundaries
    /// past that frontier complete without it.
    dead: Vec<AtomicBool>,
    /// How many poles are dead; the advance path skips the per-boundary
    /// quorum scan entirely while this is 0 (the common case).
    dead_count: AtomicUsize,
    /// Serializes `declare_dead` so the refuse-last-live-pole check and the
    /// flag flip are atomic with respect to other declarations.
    dead_lock: Mutex<()>,
}

impl WatermarkClock {
    /// Creates a clock over `n_poles` poles with the given pane width.
    pub fn new(n_poles: usize, pane_us: u64) -> Self {
        assert!(n_poles > 0, "a deployment needs at least one pole");
        assert!(pane_us > 0, "panes must have nonzero width");
        Self {
            pane_us,
            frontier: (0..n_poles).map(|_| PoleFrontier::default()).collect(),
            completed: AtomicU64::new(0),
            max_frontier: AtomicU64::new(0),
            counts: (0..RING_BOUNDARIES).map(|_| AtomicUsize::new(0)).collect(),
            overflow: Mutex::new(BTreeMap::new()),
            overflow_len: AtomicUsize::new(0),
            dead: (0..n_poles).map(|_| AtomicBool::new(false)).collect(),
            dead_count: AtomicUsize::new(0),
            dead_lock: Mutex::new(()),
        }
    }

    /// Rebuilds a clock from recovered state: every frontier (and the
    /// watermark) starts at the recovery floor `completed * pane_us`, and
    /// previously-declared dead poles stay dead. Sources re-deliver from
    /// the floor, so frontiers catch up naturally.
    pub fn resume(n_poles: usize, pane_us: u64, completed: u64, dead: &[u32]) -> Self {
        let clock = Self::new(n_poles, pane_us);
        let floor_us = completed * pane_us;
        clock.completed.store(completed, Ordering::Release);
        clock.max_frontier.store(floor_us, Ordering::Release);
        for frontier in &clock.frontier {
            frontier.0.store(floor_us, Ordering::Release);
        }
        for &pole in dead {
            if let Some(flag) = clock.dead.get(pole as usize) {
                flag.store(true, Ordering::Release);
                clock.dead_count.fetch_add(1, Ordering::Release);
            }
        }
        clock
    }

    /// Pane width, µs.
    pub fn pane_us(&self) -> u64 {
        self.pane_us
    }

    /// Feeds one pole report timestamp. Returns `Some(completed)` — the new
    /// highest completed boundary index — when the watermark advanced.
    ///
    /// Out-of-order timestamps (below the pole's frontier) are accepted and
    /// simply don't move the frontier; whether the *observations* they carry
    /// are still usable is the engine's lateness decision, not the clock's.
    ///
    /// Lock-free unless the pole is more than `RING_BOUNDARIES` (256) panes
    /// ahead of the watermark. Safe to call from many threads at once; each
    /// pole's stream must still be FIFO (the watermark contract), which also
    /// guarantees every `(pole, boundary)` pair is credited exactly once —
    /// concurrent `observe`s of one pole are resolved by `fetch_max`, whose
    /// return values carve the crossed boundaries into disjoint ranges.
    pub fn observe(&self, pole: PoleId, timestamp_us: u64) -> Option<u64> {
        if self.dead_count.load(Ordering::Relaxed) != 0
            && self.dead[pole.0 as usize].load(Ordering::Acquire)
        {
            // A dead pole's frontier is frozen; late stragglers from it
            // must not credit boundaries the quorum no longer expects
            // (callers agree not to race `declare_dead` with in-flight
            // deliveries — see `declare_dead`).
            return None;
        }
        let old = self.frontier[pole.0 as usize]
            .0
            .fetch_max(timestamp_us, Ordering::AcqRel);
        if timestamp_us <= old {
            return None;
        }
        self.max_frontier.fetch_max(timestamp_us, Ordering::AcqRel);
        let b_old = old / self.pane_us;
        let b_new = timestamp_us / self.pane_us;
        if b_new == b_old {
            return None;
        }
        for b in (b_old + 1)..=b_new {
            self.credit(b);
        }
        self.advance()
            .then(|| self.completed.load(Ordering::Acquire))
    }

    /// Records that one pole's frontier passed boundary `b`.
    fn credit(&self, b: u64) {
        loop {
            let completed = self.completed.load(Ordering::Acquire);
            debug_assert!(b > completed, "pole re-credited a completed boundary");
            if b <= completed + RING_BOUNDARIES as u64 {
                // In range. `completed` only grows, so the slot cannot be
                // re-targeted under us: its current occupant changes only
                // after `completed` passes `b`, which needs this credit.
                self.counts[(b - 1) as usize % RING_BOUNDARIES].fetch_add(1, Ordering::AcqRel);
                return;
            }
            // Beyond the horizon (a pole racing far ahead): park the credit.
            let mut overflow = self.overflow.lock().expect("watermark overflow");
            *overflow.entry(b).or_insert(0) += 1;
            self.overflow_len.store(overflow.len(), Ordering::SeqCst);
            // Dekker-style re-check, *after* publishing `overflow_len`: an
            // advancing thread pairs a SeqCst `completed` bump with a SeqCst
            // `overflow_len` read, and we pair a SeqCst `overflow_len`
            // write with a SeqCst `completed` read — so either it sees our
            // parked credit (and drains it), or we see its advance here and
            // un-park to deliver through the ring. Without this, a credit
            // parked just as the watermark swept past could be stranded and
            // stall the clock.
            if b <= self.completed.load(Ordering::SeqCst) + RING_BOUNDARIES as u64 {
                match overflow.get_mut(&b) {
                    Some(credits) if *credits > 1 => *credits -= 1,
                    _ => {
                        overflow.remove(&b);
                    }
                }
                self.overflow_len.store(overflow.len(), Ordering::SeqCst);
                continue;
            }
            return;
        }
    }

    /// Advances `completed` over every boundary whose counter is full.
    /// Returns whether it moved.
    ///
    /// The claim is a CAS on `completed` itself (`c → c + 1`): `completed`
    /// is monotone, so the CAS cannot suffer an ABA — a thread holding a
    /// stale `c` simply fails and re-reads. Only the CAS winner drains the
    /// boundary's `n_poles` from its slot, and it does so with `fetch_sub`
    /// (not a store), so credits that the slot's *next* occupant
    /// (`c + 1 + RING_BOUNDARIES`, enabled the instant `completed` passes
    /// `c`) races in concurrently are preserved, not clobbered.
    fn advance(&self) -> bool {
        let n_poles = self.frontier.len();
        let mut advanced = false;
        let mut drained = false;
        loop {
            let completed = self.completed.load(Ordering::Acquire);
            let slot = &self.counts[completed as usize % RING_BOUNDARIES];
            // The quorum for boundary `completed + 1`: every pole except
            // the dead ones whose frozen frontier never crossed it (dead
            // poles *past* it credited it while alive, so they count).
            // `need` only shrinks for a fixed boundary (poles never come
            // back to life), and the winner below subtracts the same
            // `need` it checked with, so slot accounting stays exact.
            let need = if self.dead_count.load(Ordering::Acquire) == 0 {
                n_poles
            } else {
                n_poles - self.dead_behind((completed + 1) * self.pane_us)
            };
            // A full count here can only belong to boundary `completed + 1`:
            // credits for the slot's next occupant are admitted only once
            // `completed` has moved past it — which would make our CAS fail.
            if slot.load(Ordering::Acquire) < need {
                // The missing credit may be sitting in the overflow map (a
                // pole parked it just as the horizon swept past — see
                // `credit`'s Dekker re-check): fold the map in once and
                // re-examine before concluding the boundary is incomplete.
                if !drained && self.overflow_len.load(Ordering::SeqCst) > 0 {
                    self.drain_overflow();
                    drained = true;
                    continue;
                }
                return advanced;
            }
            if self
                .completed
                .compare_exchange(
                    completed,
                    completed + 1,
                    Ordering::SeqCst,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // Lost the claim (or our view was stale): retry with the
                // fresh `completed`.
                continue;
            }
            slot.fetch_sub(need, Ordering::AcqRel);
            advanced = true;
            if self.overflow_len.load(Ordering::SeqCst) > 0 {
                self.drain_overflow();
            }
        }
    }

    /// Folds parked overflow credits whose boundaries entered the ring
    /// horizon back into the counter ring.
    fn drain_overflow(&self) {
        let mut overflow = self.overflow.lock().expect("watermark overflow");
        let horizon = self.completed.load(Ordering::Acquire) + RING_BOUNDARIES as u64;
        while let Some((&b, &credits)) = overflow.iter().next() {
            if b > horizon {
                break;
            }
            overflow.remove(&b);
            self.counts[(b - 1) as usize % RING_BOUNDARIES].fetch_add(credits, Ordering::AcqRel);
        }
        self.overflow_len.store(overflow.len(), Ordering::Release);
    }

    /// The current low watermark, µs: every pole has reported up to here.
    pub fn watermark_us(&self) -> u64 {
        self.completed.load(Ordering::Acquire) * self.pane_us
    }

    /// Highest boundary index every pole has passed.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// The largest frontier over all poles, µs — how far ahead of the
    /// watermark the fastest pole is (used by `finish` to flush). A running
    /// atomic max: one load, never an O(poles) scan.
    pub fn max_frontier_us(&self) -> u64 {
        self.max_frontier.load(Ordering::Acquire)
    }

    /// One pole's frontier: the latest timestamp heard from it, µs.
    pub fn frontier_us(&self, pole: PoleId) -> u64 {
        self.frontier[pole.0 as usize].0.load(Ordering::Acquire)
    }

    /// How many poles' frontiers have *not* reached `timestamp_us` — the
    /// poles a wall-clock forced seal of the pane ending there would cut
    /// off. An O(poles) scan, but it only runs on the staleness-timeout
    /// path (a pole died mid-run), never on ingest.
    pub fn poles_behind(&self, timestamp_us: u64) -> usize {
        self.frontier
            .iter()
            .filter(|f| f.0.load(Ordering::Acquire) < timestamp_us)
            .count()
    }

    /// Removes a stalled pole from the seal quorum: boundaries beyond its
    /// frozen frontier complete without it, so event-time sealing resumes
    /// instead of waiting for wall-clock forced seals. Returns `false` if
    /// the pole is already dead or is the last live pole (a clock needs at
    /// least one live frontier to define event time).
    ///
    /// **Contract:** only declare a pole dead after its delivery stream
    /// has stopped. An `observe` for the pole racing this call can credit
    /// a boundary the shrunken quorum no longer expects, double-counting
    /// it — the same class of caller obligation as FIFO-per-pole delivery.
    pub fn declare_dead(&self, pole: PoleId) -> bool {
        let p = pole.0 as usize;
        let _guard = self.dead_lock.lock().expect("watermark dead lock");
        if self.dead[p].load(Ordering::Acquire) {
            return false;
        }
        if self.dead_count.load(Ordering::Acquire) + 1 >= self.frontier.len() {
            return false;
        }
        self.dead[p].store(true, Ordering::Release);
        self.dead_count.fetch_add(1, Ordering::SeqCst);
        // Boundaries that were only waiting on this pole can complete now.
        self.advance();
        true
    }

    /// Whether a pole has been declared dead.
    pub fn is_dead(&self, pole: PoleId) -> bool {
        self.dead[pole.0 as usize].load(Ordering::Acquire)
    }

    /// Poles declared dead so far, ascending.
    pub fn dead_poles(&self) -> Vec<u32> {
        if self.dead_count.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, d)| d.load(Ordering::Acquire))
            .map(|(p, _)| p as u32)
            .collect()
    }

    /// Dead poles whose frozen frontier never reached `timestamp_us` — the
    /// poles excused from the quorum of the pane ending there. O(poles),
    /// but only runs while at least one pole is dead (operator events, not
    /// steady state).
    fn dead_behind(&self, timestamp_us: u64) -> usize {
        self.dead
            .iter()
            .zip(&self.frontier)
            .filter(|(dead, frontier)| {
                dead.load(Ordering::Acquire) && frontier.0.load(Ordering::Acquire) < timestamp_us
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_waits_for_the_slowest_pole() {
        let clock = WatermarkClock::new(3, 1_000);
        // Two poles race ahead; the watermark stays at 0.
        assert_eq!(clock.observe(PoleId(0), 5_500), None);
        assert_eq!(clock.observe(PoleId(1), 9_000), None);
        assert_eq!(clock.watermark_us(), 0);
        // The slowest pole reaches 3.2 ms: boundaries 1..=3 complete.
        assert_eq!(clock.observe(PoleId(2), 3_200), Some(3));
        assert_eq!(clock.watermark_us(), 3_000);
        // It advances again: the watermark follows min(frontier), not max.
        assert_eq!(clock.observe(PoleId(2), 5_100), Some(5));
        assert_eq!(clock.watermark_us(), 5_000);
        assert_eq!(clock.max_frontier_us(), 9_000);
    }

    #[test]
    fn watermark_is_monotone_under_any_interleaving() {
        let deliveries: &[(u32, u64)] = &[
            (0, 1_500),
            (1, 900),
            (1, 2_100),
            (0, 700), // out of order for pole 0: ignored by the frontier
            (2, 4_000),
            (0, 3_800),
            (1, 4_400),
            (2, 2_000), // out of order for pole 2
        ];
        let clock = WatermarkClock::new(3, 1_000);
        let mut last = 0;
        for &(pole, ts) in deliveries {
            clock.observe(PoleId(pole), ts);
            let w = clock.watermark_us();
            assert!(w >= last, "watermark regressed: {w} < {last}");
            last = w;
        }
        // min frontier = min(3_800, 4_400, 4_000) -> boundary 3.
        assert_eq!(clock.watermark_us(), 3_000);
    }

    #[test]
    fn single_pole_watermark_tracks_its_frontier() {
        let clock = WatermarkClock::new(1, 500);
        assert_eq!(clock.observe(PoleId(0), 1_700), Some(3));
        assert_eq!(clock.watermark_us(), 1_500);
    }

    #[test]
    fn max_frontier_is_a_running_max_not_a_scan() {
        // Regression test for the running-max satellite: the max must track
        // every frontier advance (including through out-of-order deliveries
        // that do not move the frontier) without rescanning poles.
        let clock = WatermarkClock::new(4, 1_000);
        assert_eq!(clock.max_frontier_us(), 0);
        clock.observe(PoleId(2), 7_300);
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(0), 4_000); // behind the max: no change
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(2), 6_000); // out of order: frontier unmoved
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(3), 11_111);
        assert_eq!(clock.max_frontier_us(), 11_111);
        // The max is independent of the watermark (pole 1 never reported).
        assert_eq!(clock.watermark_us(), 0);
    }

    #[test]
    fn frontier_accessors_expose_per_pole_lag() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 5_500);
        clock.observe(PoleId(1), 2_000);
        assert_eq!(clock.frontier_us(PoleId(0)), 5_500);
        assert_eq!(clock.frontier_us(PoleId(1)), 2_000);
        assert_eq!(clock.frontier_us(PoleId(2)), 0);
        // Poles behind the pane-3 boundary (3 000 µs): pole 1 and pole 2.
        assert_eq!(clock.poles_behind(3_000), 2);
        assert_eq!(clock.poles_behind(1), 1, "only the silent pole");
        assert_eq!(clock.poles_behind(6_000), 3);
    }

    #[test]
    fn a_pole_racing_past_the_ring_horizon_still_counts() {
        // Pole 0 sprints thousands of panes ahead — far beyond the counter
        // ring — before pole 1 starts. Credits must survive the overflow
        // path: once pole 1 catches up, the watermark covers the full range.
        let far = (RING_BOUNDARIES as u64 + 1_000) * 1_000;
        let clock = WatermarkClock::new(2, 1_000);
        assert_eq!(clock.observe(PoleId(0), far), None);
        assert_eq!(clock.max_frontier_us(), far);
        // Pole 1 walks up in steps that repeatedly cross the old horizon.
        let mut last = 0;
        for step in 1..=(RING_BOUNDARIES as u64 + 1_000) {
            clock.observe(PoleId(1), step * 1_000);
            let w = clock.watermark_us();
            assert!(w >= last, "watermark regressed: {w} < {last}");
            last = w;
        }
        assert_eq!(clock.watermark_us(), far / 1_000 * 1_000);
        assert_eq!(clock.completed(), RING_BOUNDARIES as u64 + 1_000);
    }

    #[test]
    fn declaring_a_pole_dead_resumes_event_time_sealing() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 5_500);
        clock.observe(PoleId(1), 5_200);
        clock.observe(PoleId(2), 1_400); // then it goes silent
        assert_eq!(clock.watermark_us(), 1_000);
        // Pole 2 is declared dead: boundaries past its frozen frontier
        // complete from the surviving quorum alone.
        assert!(clock.declare_dead(PoleId(2)));
        assert_eq!(clock.watermark_us(), 5_000);
        // Dead is idempotent-false, and its stragglers are ignored.
        assert!(!clock.declare_dead(PoleId(2)));
        assert!(clock.is_dead(PoleId(2)));
        assert_eq!(clock.observe(PoleId(2), 9_000), None);
        assert_eq!(clock.frontier_us(PoleId(2)), 1_400);
        // The survivors keep advancing the watermark without pole 2.
        clock.observe(PoleId(0), 8_000);
        assert_eq!(clock.observe(PoleId(1), 7_000), Some(7));
        assert_eq!(clock.dead_poles(), vec![2]);
    }

    #[test]
    fn the_last_live_pole_cannot_be_declared_dead() {
        let clock = WatermarkClock::new(2, 1_000);
        assert!(clock.declare_dead(PoleId(0)));
        assert!(!clock.declare_dead(PoleId(1)), "one frontier must survive");
        clock.observe(PoleId(1), 3_000);
        assert_eq!(clock.watermark_us(), 3_000);
    }

    #[test]
    fn a_dead_pole_ahead_of_a_boundary_still_counts_toward_it() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 4_000);
        clock.observe(PoleId(1), 900);
        // Pole 0 credited boundaries 1..=4 while alive, then died.
        assert!(clock.declare_dead(PoleId(0)));
        // Its past credits must still count: once poles 1 and 2 pass a
        // boundary below 4 000 µs, the full 3-credit quorum is met.
        clock.observe(PoleId(1), 2_500);
        assert_eq!(clock.observe(PoleId(2), 2_100), Some(2));
        // Beyond the dead pole's frontier the quorum shrinks to 2.
        clock.observe(PoleId(1), 6_000);
        assert_eq!(clock.observe(PoleId(2), 6_000), Some(6));
    }

    #[test]
    fn resume_restores_floor_and_dead_set() {
        let clock = WatermarkClock::resume(3, 1_000, 7, &[1]);
        assert_eq!(clock.completed(), 7);
        assert_eq!(clock.watermark_us(), 7_000);
        assert_eq!(clock.max_frontier_us(), 7_000);
        assert_eq!(clock.frontier_us(PoleId(0)), 7_000);
        assert!(clock.is_dead(PoleId(1)));
        assert_eq!(clock.observe(PoleId(1), 9_000), None);
        // Live poles advance the resumed watermark from the floor, without
        // the dead pole.
        clock.observe(PoleId(0), 9_000);
        assert_eq!(clock.observe(PoleId(2), 8_200), Some(8));
    }

    #[test]
    fn concurrent_observes_agree_with_a_sequential_run() {
        // 8 threads, one pole each, every pole walking to the same horizon:
        // the final watermark must equal the sequential answer and no
        // boundary may be lost or double-counted along the way.
        let n_poles = 8;
        let epochs = 2_000u64;
        let clock = WatermarkClock::new(n_poles, 1_000);
        std::thread::scope(|scope| {
            for p in 0..n_poles as u32 {
                let clock = &clock;
                scope.spawn(move || {
                    // Stagger the walks so fast poles outrun slow ones by
                    // more than the ring at times (p = 0 is the laggard).
                    let stride = 1 + p as u64;
                    let mut t = 0;
                    while t < epochs * 1_000 {
                        t += stride * 337;
                        clock.observe(PoleId(p), t.min(epochs * 1_000));
                    }
                });
            }
        });
        assert_eq!(clock.completed(), epochs);
        assert_eq!(clock.watermark_us(), epochs * 1_000);
        assert_eq!(clock.max_frontier_us(), epochs * 1_000);
    }
}
