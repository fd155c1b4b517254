//! Window-keyed aggregate state.
//!
//! The city aggregators ([`CityAggregates`] and its parts) are whole-run
//! accumulators. The live tier generalizes them into **panes**:
//! fixed-width slices of event time (the watermark's granularity, see
//! [`crate::watermark`]). Each pane accumulates its own aggregate state;
//! *windows* — tumbling or sliding — are unions of consecutive panes, so one
//! set of sealed panes answers every window query:
//!
//! * a **tumbling** window of width `W = k · pane` is every aligned run of
//!   `k` panes;
//! * a **sliding** window of width `W` sliding by the pane width is the run
//!   of `k` panes ending at any pane.
//!
//! [`WindowRing`] is the pane store: a bounded ring that admits sealed panes
//! in pane order and evicts the oldest beyond its retention, which makes
//! eviction deterministic — a property pinned by the live determinism tests.
//! Any aggregate implementing [`WindowAggregate`] (merge + fingerprint) can
//! be window-keyed; all four city products implement it.

use caraoke_city::aggregate::Fingerprint;
use caraoke_city::{CityAggregates, FlowCounter, OdMatrix, SegmentStats, SpeedHistogram};
use std::collections::VecDeque;

/// State that can live in window panes: mergeable across panes (and shards)
/// and fingerprintable for determinism checks.
pub trait WindowAggregate: Clone + Default {
    /// Folds another pane's state in (associative, commutative).
    fn merge(&mut self, other: &Self);

    /// 64-bit fingerprint of the canonical byte encoding.
    fn fingerprint64(&self) -> u64;
}

impl WindowAggregate for CityAggregates {
    fn merge(&mut self, other: &Self) {
        CityAggregates::merge(self, other);
    }

    fn fingerprint64(&self) -> u64 {
        self.fingerprint()
    }
}

macro_rules! impl_window_aggregate {
    ($($t:ty),*) => {$(
        impl WindowAggregate for $t {
            fn merge(&mut self, other: &Self) {
                <$t>::merge(self, other);
            }

            fn fingerprint64(&self) -> u64 {
                let mut fp = Fingerprint::new();
                self.fingerprint_into(&mut fp);
                fp.finish()
            }
        }
    )*};
}
impl_window_aggregate!(SegmentStats, FlowCounter, SpeedHistogram, OdMatrix);

/// An event-time window shape: `width_us` of data re-evaluated every
/// `slide_us`. `slide == width` is a tumbling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width, µs.
    pub width_us: u64,
    /// Slide interval, µs (how often the window re-evaluates).
    pub slide_us: u64,
}

impl WindowSpec {
    /// A tumbling window: disjoint, back-to-back slices of width `width_us`.
    pub fn tumbling(width_us: u64) -> Self {
        assert!(width_us > 0, "windows must have nonzero width");
        Self {
            width_us,
            slide_us: width_us,
        }
    }

    /// A sliding window: `width_us` of data re-evaluated every `slide_us`.
    pub fn sliding(width_us: u64, slide_us: u64) -> Self {
        assert!(slide_us > 0, "slide must be nonzero");
        assert!(
            width_us >= slide_us,
            "a window narrower than its slide would skip data"
        );
        Self { width_us, slide_us }
    }

    /// Whether the window tumbles (slide == width).
    pub fn is_tumbling(&self) -> bool {
        self.slide_us == self.width_us
    }

    /// Number of panes the window spans at the given pane width (rounds up,
    /// never below one pane).
    pub fn panes(&self, pane_us: u64) -> usize {
        (self.width_us.div_ceil(pane_us).max(1)) as usize
    }
}

/// A bounded, pane-indexed ring of sealed window aggregates.
///
/// Panes are pushed in pane order as the watermark seals them; the ring
/// retains the most recent `capacity` panes and evicts the oldest —
/// deterministically, since seal order is pane order. Window queries merge
/// the trailing `k` panes.
#[derive(Debug, Clone)]
pub struct WindowRing<A> {
    capacity: usize,
    panes: VecDeque<(u64, A)>,
    evicted: u64,
}

impl<A: WindowAggregate> WindowRing<A> {
    /// Creates a ring retaining at most `capacity` sealed panes (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            panes: VecDeque::with_capacity(capacity),
            evicted: 0,
        }
    }

    /// Admits one sealed pane (panes must arrive in increasing pane order),
    /// returning the evicted pane when retention overflows.
    pub fn push(&mut self, pane: u64, agg: A) -> Option<(u64, A)> {
        if let Some(&(last, _)) = self.panes.back() {
            assert!(pane > last, "panes must seal in order: {pane} after {last}");
        }
        self.panes.push_back((pane, agg));
        if self.panes.len() > self.capacity {
            self.evicted += 1;
            self.panes.pop_front()
        } else {
            None
        }
    }

    /// Number of panes currently retained.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// Whether no pane has been retained.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// Panes evicted over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The most recent sealed pane index.
    pub fn latest_pane(&self) -> Option<u64> {
        self.panes.back().map(|&(p, _)| p)
    }

    /// Iterates over `(pane index, aggregate)`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &A)> {
        self.panes.iter().map(|(p, a)| (*p, a))
    }

    /// Merges the `k` most recent panes into one window aggregate (fewer if
    /// the ring holds fewer).
    pub fn merge_last(&self, k: usize) -> A {
        let mut out = A::default();
        let start = self.panes.len().saturating_sub(k);
        for (_, agg) in self.panes.iter().skip(start) {
            out.merge(agg);
        }
        out
    }

    /// Merges the panes of the sliding window described by `spec`, ending at
    /// the most recent sealed pane.
    pub fn window(&self, spec: WindowSpec, pane_us: u64) -> A {
        self.merge_last(spec.panes(pane_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleId, SegmentId};

    #[test]
    fn tumbling_and_sliding_specs_span_the_right_pane_counts() {
        let tumbling = WindowSpec::tumbling(6_000_000);
        assert!(tumbling.is_tumbling());
        assert_eq!(tumbling.panes(1_500_000), 4);
        let sliding = WindowSpec::sliding(6_000_000, 1_500_000);
        assert!(!sliding.is_tumbling());
        assert_eq!(sliding.panes(1_500_000), 4);
        // Ragged widths round up; a sub-pane window still spans one pane.
        assert_eq!(WindowSpec::tumbling(4_000_000).panes(1_500_000), 3);
        assert_eq!(WindowSpec::tumbling(100).panes(1_500_000), 1);
    }

    #[test]
    fn occupancy_window_merges_segment_stats_panes() {
        // Tumbling occupancy (the "last N traffic-light cycles" workload):
        // each pane holds one cycle's SegmentStats.
        let mut ring: WindowRing<SegmentStats> = WindowRing::new(8);
        for pane in 0..5u64 {
            let mut stats = SegmentStats::default();
            stats.record_report(pane as u32 + 1, pane as u32 + 1, 0);
            ring.push(pane, stats);
        }
        let last3 = ring.merge_last(3);
        assert_eq!(last3.reports, 3);
        assert_eq!(last3.sum_count, 3 + 4 + 5);
        assert_eq!(last3.peak_count, 5);
        assert!((last3.mean_occupancy() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn flow_window_keeps_per_cycle_counts_per_pane() {
        let mut ring: WindowRing<FlowCounter> = WindowRing::new(4);
        for pane in 0..4u64 {
            let mut flow = FlowCounter::default();
            for _ in 0..=pane {
                flow.record(SegmentId(2), pane as u32);
            }
            ring.push(pane, flow);
        }
        let last2 = ring.merge_last(2);
        assert_eq!(last2.total(), 3 + 4);
        assert_eq!(last2.per_cycle.get(&(2, 3)), Some(&4));
        assert_eq!(last2.per_cycle.get(&(2, 0)), None, "outside the window");
    }

    #[test]
    fn speed_percentiles_come_from_the_merged_window() {
        let mut ring: WindowRing<SpeedHistogram> = WindowRing::new(8);
        let mut slow = SpeedHistogram::new();
        slow.record(20.0);
        ring.push(0, slow);
        let mut fast = SpeedHistogram::new();
        fast.record(60.0);
        ring.push(1, fast);
        // One-pane window sees only the fast pane; two-pane window both.
        assert!((ring.merge_last(1).percentile_mph(50.0) - 60.25).abs() < 1e-9);
        let both = ring.window(WindowSpec::sliding(2, 1), 1);
        assert_eq!(both.samples(), 2);
        assert!((both.percentile_mph(50.0) - 20.25).abs() < 1e-9);
        assert!((both.percentile_mph(100.0) - 60.25).abs() < 1e-9);
    }

    #[test]
    fn od_top_pairs_are_windowed_and_eviction_is_deterministic() {
        let mut ring: WindowRing<OdMatrix> = WindowRing::new(2);
        for pane in 0..5u64 {
            let mut od = OdMatrix::default();
            od.record(PoleId(pane as u32), PoleId(pane as u32 + 1));
            od.record(PoleId(9), PoleId(9 + pane as u32));
            let evicted = ring.push(pane, od);
            // Retention 2: pane p evicts pane p-2, in order.
            assert_eq!(evicted.map(|(p, _)| p), (pane >= 2).then(|| pane - 2));
        }
        assert_eq!(ring.evicted(), 3);
        assert_eq!(ring.latest_pane(), Some(4));
        let window = ring.merge_last(2);
        assert_eq!(window.total(), 4);
        let top = window.top(2);
        // Ties broken by pole ids: (3,4) before (4,5) before the 9-pairs.
        assert_eq!(top[0], ((3, 4), 1));
        assert_eq!(top[1], ((4, 5), 1));
    }

    #[test]
    fn window_aggregate_fingerprints_distinguish_states() {
        let mut a = SpeedHistogram::new();
        a.record(30.0);
        let mut b = a.clone();
        assert_eq!(a.fingerprint64(), b.fingerprint64());
        b.record(31.0);
        assert_ne!(a.fingerprint64(), b.fingerprint64());
    }
}
