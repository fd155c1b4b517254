//! End-to-end test of the live subsystem: `caraoke-sim` streets and
//! vehicles → per-pole PHY collisions → `caraoke::CaraokeReader` →
//! `caraoke-live` watermarked online ingestion, windowed aggregation and
//! the query API.

use caraoke_suite::city::{reference, FrameSource, PhyCity, SegmentId, StoreConfig};
use caraoke_suite::live::{
    Interleaving, LiveAnswer, LiveCity, LiveConfig, LiveDriver, LiveQuery, LiveSubscription,
    WindowSpec,
};

#[test]
fn position_accuracy_is_queryable_from_the_live_windows() {
    let city = PhyCity::campus(3, 10, 8);
    let run = live_driver(4, 8, Interleaving::PoleStriped).run(&city);
    // The whole-run counters carried through pane sealing.
    assert!(run.totals.positions.two_reader_fixes > 0);
    assert!(run.totals.positions.track_speed_samples > 0);
    // And the windowed product answers coherently.
    let live = LiveCity::new(
        city.directory().clone(),
        live_driver(1, 4, Interleaving::PoleStriped).config,
    );
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
    }
    live.finish();
    match live.query(&LiveQuery::PositionAccuracy {
        window: WindowSpec::tumbling(10_000_000),
    }) {
        LiveAnswer::PositionAccuracy {
            two_reader_fixes,
            pole_fallbacks,
            localized_fraction,
            mean_sigma_m,
            ..
        } => {
            assert!(two_reader_fixes > 0, "windowed fixes must be visible");
            assert!((0.0..=1.0).contains(&localized_fraction));
            assert!(localized_fraction > 0.5);
            assert!(mean_sigma_m > 0.0);
            let _ = pole_fallbacks;
        }
        other => panic!("unexpected answer {other:?}"),
    }
}

fn live_driver(workers: usize, shards: usize, interleaving: Interleaving) -> LiveDriver {
    LiveDriver {
        workers,
        interleaving,
        config: LiveConfig {
            store: StoreConfig {
                shards,
                ..Default::default()
            },
            pane_us: 1_000_000, // PhyCity's epoch width
            retain_panes: 32,
            ..Default::default()
        },
        pace_lag_panes: None,
    }
}

#[test]
fn sim_to_reader_to_live_produces_coherent_windowed_analytics() {
    // Four campus streets x 3 poles, 15 query epochs of real PHY collisions,
    // streamed online.
    let city = PhyCity::campus(3, 15, 8);
    let run = live_driver(4, 8, Interleaving::PoleStriped).run(&city);

    // Every pole reported every epoch; FIFO delivery sheds nothing, and
    // every pane seals after the flush.
    assert_eq!(run.stats.reports, 12 * 15);
    assert_eq!(run.stats.shed_reports, 0);
    assert_eq!(run.stats.sealed_panes, 15, "one pane per epoch");
    assert_eq!(run.stats.buffered_observations, 0);
    assert!(run.stats.observations > 0, "poles must hear tags");

    // Whole-run coherence matches the city e2e expectations.
    let seg_a = &run.totals.segments[&0];
    assert!(seg_a.mean_occupancy() >= 1.0, "street A parked cars");
    assert!(run.totals.od.total() > 0, "no OD transitions recorded");
    assert!(run.totals.speeds.samples() > 0, "no speed samples");
    let p50 = run.totals.speeds.percentile_mph(50.0);
    assert!((5.0..=80.0).contains(&p50), "median speed {p50} mph");
    for seg in 0..4u16 {
        assert!(
            run.totals.flow.mean_flow(SegmentId(seg)) > 0.0,
            "street {seg} saw no flow"
        );
    }
}

#[test]
fn live_window_chain_is_invariant_and_matches_the_reference_fold() {
    let city = PhyCity::campus(2, 8, 21);
    let a = live_driver(1, 1, Interleaving::PoleStriped).run(&city);
    let b = live_driver(4, 8, Interleaving::PoleStriped).run(&city);
    let c = live_driver(1, 5, Interleaving::ShuffledFifo { seed: 77 }).run(&city);
    assert_eq!(
        a.chain_fingerprint, b.chain_fingerprint,
        "worker/shard counts changed the window sequence"
    );
    assert_eq!(
        a.chain_fingerprint, c.chain_fingerprint,
        "arrival interleaving changed the window sequence"
    );
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.totals, c.totals);

    // The online chain and totals equal the reference fold of the same
    // PHY source, byte for byte.
    let config = live_driver(1, 1, Interleaving::PoleStriped).config;
    let oracle = reference::fold(
        city.directory(),
        &config.store,
        config.pane_us,
        &reference::reports_of(&city),
    );
    assert_eq!(a.totals.fingerprint(), oracle.totals().fingerprint());
    assert_eq!(a.totals, oracle.totals());
    assert_eq!(a.chain_fingerprint, oracle.chain());
}

#[test]
fn queries_and_subscription_work_against_a_streaming_phy_run() {
    let city = PhyCity::campus(3, 12, 5);
    let driver = live_driver(2, 4, Interleaving::PoleStriped);
    let live = LiveCity::new(city.directory().clone(), driver.config);
    let mut subscription = LiveSubscription::new();
    let mut sealed_seen = 0usize;
    let mut last_watermark = 0u64;
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
        // Watermark monotonicity while streaming.
        let w = live.watermark_us();
        assert!(w >= last_watermark, "watermark regressed mid-stream");
        last_watermark = w;
        let (panes, missed) = subscription.poll(&live);
        assert_eq!(missed, 0, "retention covers the whole run");
        sealed_seen += panes.len();
    }
    live.finish();
    let (panes, _) = subscription.poll(&live);
    sealed_seen += panes.len();
    assert_eq!(
        sealed_seen as u64,
        live.sealed_panes(),
        "every sealed pane reaches the subscriber exactly once"
    );

    // Windowed queries answer from sealed state.
    let occupancy = live.query(&LiveQuery::Occupancy {
        segment: SegmentId(0),
        window: WindowSpec::sliding(12_000_000, 1_000_000),
    });
    match occupancy {
        LiveAnswer::Occupancy { reports, .. } => {
            assert_eq!(reports, 3 * 12, "street A's poles report every epoch")
        }
        other => panic!("unexpected answer {other:?}"),
    }
    match live.query(&LiveQuery::SpeedPercentile {
        p: 90.0,
        window: WindowSpec::tumbling(12_000_000),
    }) {
        LiveAnswer::Speed { samples, mph } => {
            assert!(samples > 0);
            assert!(mph > 0.0);
        }
        other => panic!("unexpected answer {other:?}"),
    }
}
