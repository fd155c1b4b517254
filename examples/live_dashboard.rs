//! Live dashboard: stream the city online and watch the rolling windows.
//!
//! Two acts:
//!
//! 1. the full sim → PHY → reader pipeline over the four campus streets,
//!    streamed through the watermarked `caraoke-live` engine from a
//!    background ingest thread while the main thread **blocks in
//!    `LiveSubscription::wait_next`** — woken by the sealer thread the
//!    moment each pane seals, instead of busy-polling;
//! 2. a 1 000-pole synthetic city streamed online, rendering the rolling
//!    windows and checking the chain and totals against the reference fold.
//!
//! Run with: `cargo run --release --example live_dashboard`

use caraoke_suite::city::{reference, FrameSource, PhyCity, SyntheticCity};
use caraoke_suite::live::{
    dashboard, Interleaving, LiveCity, LiveConfig, LiveDriver, LiveSubscription,
};
use std::time::Duration;

fn main() {
    // 1. Evaluation-grade streaming: real collisions, real per-pole readers,
    //    applied online pole by pole, epoch by epoch. The dashboard side
    //    sleeps in `wait_next` and is pushed every sealed pane.
    let phy = PhyCity::campus(4, 20, 42);
    let config = LiveConfig {
        pane_us: phy.epoch_us(),
        retain_panes: 32,
        ..Default::default()
    };
    let live = LiveCity::new(phy.directory().clone(), config);
    println!(
        "streaming the campus deployment ({} tags) through the live engine:\n",
        phy.n_tags()
    );
    std::thread::scope(|scope| {
        let (phy, live) = (&phy, &live);
        scope.spawn(move || {
            for epoch in 0..phy.epochs() {
                for pole in 0..phy.directory().len() as u32 {
                    live.ingest(&phy.report(pole, epoch));
                }
            }
            live.finish();
        });
        // `finish` seals one pane per epoch (the last report lands at
        // `(epochs - 1) * epoch_us`, so the flush target is pane `epochs`);
        // wait for each as it lands rather than polling.
        let total_panes = phy.epochs() as u64;
        let mut subscription = LiveSubscription::new();
        let mut seen = 0u64;
        while seen < total_panes {
            let (sealed, missed) = subscription.wait_next(live, Duration::from_secs(10));
            if sealed.is_empty() && missed == 0 {
                break; // timed out: ingest must have stalled
            }
            for pane in &sealed {
                println!(
                    "  sealed pane {:>3} @ {:>5.1} s: {:>3} obs, {:>2} od, p50 {:>5.1} mph",
                    pane.pane,
                    pane.start_us as f64 / 1e6,
                    pane.observations,
                    pane.od_transitions,
                    pane.p50_speed_mph,
                );
            }
            if missed > 0 {
                println!("  (subscription missed {missed} evicted panes)");
            }
            seen += sealed.len() as u64 + missed;
        }
    });
    println!("\n{}", dashboard::render(&live, 6));

    // 2. City scale, online: 1 000 poles of synthetic reader output.
    let city = SyntheticCity::new(1_000, 30, 7);
    let driver = LiveDriver {
        workers: 8,
        interleaving: Interleaving::PoleStriped,
        config: LiveConfig::default(),
        pace_lag_panes: None,
    };
    println!("synthetic city-scale online ingestion (1 000 poles, 30 epochs):\n");
    let live = LiveCity::new(city.directory().clone(), driver.config);
    let start = std::time::Instant::now();
    driver.stream(&city, &live);
    live.finish();
    let elapsed = start.elapsed().as_secs_f64();
    println!("{}", dashboard::render(&live, 5));
    let oracle = reference::fold(
        city.directory(),
        &driver.config.store,
        driver.config.pane_us,
        &reference::reports_of(&city),
    );
    let stats = live.stats();
    println!(
        "online: {:.0} obs/s | window chain {:#018x} | matches reference fold: {}",
        stats.observations as f64 / elapsed.max(1e-9),
        live.fingerprint_chain(),
        live.totals() == oracle.totals() && live.fingerprint_chain() == oracle.chain(),
    );
}
