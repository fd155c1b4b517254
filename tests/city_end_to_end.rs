//! End-to-end test of the city subsystem: `caraoke-sim` streets and vehicles
//! → per-pole PHY collisions → `caraoke::CaraokeReader` → `caraoke-city`
//! tracker and aggregates, run by the `caraoke-live` engine.

use caraoke_suite::city::{PhyCity, SegmentId, StoreConfig};
use caraoke_suite::live::{Interleaving, LiveConfig, LiveDriver};
use caraoke_suite::sim::TwoReaderLocalizationScenario;

fn driver(workers: usize, shards: usize) -> LiveDriver {
    LiveDriver {
        workers,
        interleaving: Interleaving::PoleStriped,
        config: LiveConfig {
            store: StoreConfig {
                shards,
                ..Default::default()
            },
            pane_us: 1_000_000, // PhyCity's epoch width
            ..Default::default()
        },
        pace_lag_panes: None,
    }
}

#[test]
fn sim_to_reader_to_city_produces_coherent_analytics() {
    // Four campus streets x 3 poles, 15 query epochs of real PHY collisions.
    let city = PhyCity::campus(3, 15, 8);
    let run = driver(4, 8).run(&city);

    // Every pole reported every epoch.
    assert_eq!(run.stats.reports, 12 * 15);
    assert!(run.stats.observations > 0, "poles must hear tags");

    // Occupancy: street A (segment 0) has 2 parked + up to 2 driving cars in
    // range of its poles; its mean simultaneous occupancy must reflect the
    // parked baseline and never exceed the deployment's tag population.
    let seg_a = &run.totals.segments[&0];
    assert!(seg_a.reports > 0);
    assert!(
        seg_a.mean_occupancy() >= 1.0,
        "street A parked cars must show up (mean {})",
        seg_a.mean_occupancy()
    );
    assert!(seg_a.peak_count as usize <= city.n_tags());

    // Street C (segment 2) has no parking: only through traffic.
    let seg_c = &run.totals.segments[&2];
    assert!(seg_c.peak_count <= 3, "street C peak {}", seg_c.peak_count);

    // Through cars cross consecutive poles => OD transitions and speed
    // samples from cross-pole re-sightings.
    assert!(run.totals.od.total() > 0, "no OD transitions recorded");
    assert!(
        run.totals.speeds.samples() > 0,
        "no speed samples from cross-pole fixes"
    );
    // The deployment drives 24-35 mph; allow generous AoA/teleport slack but
    // insist the median is road-plausible.
    let p50 = run.totals.speeds.percentile_mph(50.0);
    assert!((5.0..=80.0).contains(&p50), "median speed {p50} mph");

    // Flow: every street sees at least one vehicle per run.
    for seg in 0..4u16 {
        assert!(
            run.totals.flow.mean_flow(SegmentId(seg)) > 0.0,
            "street {seg} saw no flow"
        );
    }

    // The PositionSource ladder ran: real §6 fixes dominate, the speed
    // product consumed position tracks, and the per-method counters add up.
    let pos = &run.totals.positions;
    assert_eq!(pos.observations(), run.stats.observations);
    assert!(pos.two_reader_fixes > 0, "no two-reader conic fixes");
    assert!(
        pos.localized_fraction() > 0.5,
        "two-antenna poles should localize most spikes (got {:.2})",
        pos.localized_fraction()
    );
    assert!(
        pos.track_speed_samples > 0,
        "speed must come from position tracks, not only pole arrivals"
    );
    assert_eq!(
        pos.track_speed_samples + pos.arrival_speed_samples,
        run.totals.speeds.samples(),
        "every speed sample is source-tagged"
    );
    assert!(pos.mean_sigma_m() > 0.0);
}

#[test]
fn two_reader_localization_error_matches_the_papers_meter_claim() {
    // End-to-end §6 accuracy: full PHY at two opposite-side readers, conic
    // intersection, error against ground truth — the paper reports ~1 m
    // median (§12.2).
    let report = TwoReaderLocalizationScenario::default().run();
    assert!(
        report.fix_rate() > 0.7,
        "fix rate {:.2} ({}/{})",
        report.fix_rate(),
        report.fixes,
        report.attempts
    );
    assert!(
        report.median_error_m < 1.5,
        "median localization error {:.2} m vs the ~1 m claim",
        report.median_error_m
    );
    assert!(report.p90_error_m < 6.0, "p90 {:.2} m", report.p90_error_m);
}

#[test]
fn phy_pipeline_aggregates_are_shard_and_worker_invariant() {
    let city = PhyCity::campus(2, 8, 21);
    let a = driver(1, 1).run(&city);
    let b = driver(4, 8).run(&city);
    let c = driver(3, 5).run(&city);
    assert_eq!(a.totals, b.totals, "worker/shard counts changed results");
    assert_eq!(a.totals.fingerprint(), c.totals.fingerprint());
    assert_eq!(a.stats.observations, b.stats.observations);
}
