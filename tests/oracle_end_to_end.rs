//! The engine against the reference fold: for a synthetic city (unique tag
//! keys, and CFO-keyed identities that exercise the §8 alias path) and the
//! full-PHY campus, the live engine's window chain and totals must equal
//! the single-threaded `caraoke_city::reference` fold *and* a verified
//! replay of the pane log the engine wrote — for every shard count ×
//! tracker pool size.

use caraoke_suite::city::{reference, FrameSource, PhyCity, StoreConfig, SyntheticCity};
use caraoke_suite::live::{LiveCity, LiveConfig};
use caraoke_suite::log::{LogCity, LogOptions};
use std::path::PathBuf;

const SHARDS: [usize; 4] = [1, 3, 8, 16];
const POOLS: [usize; 4] = [1, 2, 4, 8];

/// Feeds `source`'s reports (generated once, delivered epoch by epoch) to
/// a logged engine for every shard × pool configuration and checks
/// live == reference == verified replay.
fn engine_matches_reference_and_replay(name: &str, source: &impl FrameSource, pane_us: u64) {
    let directory = source.directory();
    let reports = reference::reports_of(source);
    for shards in SHARDS {
        let store = StoreConfig {
            shards,
            ..Default::default()
        };
        let oracle = reference::fold(directory, &store, pane_us, &reports);
        assert!(oracle.totals().observations > 0, "{name}: empty workload");
        for seal_pool in POOLS {
            let config = LiveConfig {
                store,
                pane_us,
                seal_pool,
                retain_panes: 8,
                ..Default::default()
            };
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("oracle-{name}-{shards}-{seal_pool}"));
            let _ = std::fs::remove_dir_all(&dir);
            let live = LiveCity::with_log(directory.clone(), config, &dir, LogOptions::default())
                .expect("create logged engine");
            for report in &reports {
                live.ingest(report);
            }
            live.finish();
            let (chain, totals) = (live.fingerprint_chain(), live.totals());
            drop(live);
            let what = format!("{name}, {shards} shards, pool {seal_pool}");
            assert_eq!(totals, oracle.totals(), "{what}: live totals == reference");
            assert_eq!(chain, oracle.chain(), "{what}: live chain == reference");
            let replay = LogCity::open(&dir).replay().expect("verified replay");
            assert_eq!(replay.chain, chain, "{what}: replay chain == live");
            assert_eq!(replay.totals, totals, "{what}: replay totals == live");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn synthetic_city_matches_the_reference_fold_and_replay() {
    let source = SyntheticCity::new(24, 10, 31);
    engine_matches_reference_and_replay("synthetic", &source, LiveConfig::default().pane_us);
}

#[test]
fn cfo_keyed_synthetic_city_matches_the_reference_fold_and_replay() {
    let mut source = SyntheticCity::new(24, 10, 32);
    source.cfo_keyed = true;
    let oracle = reference::fold(
        source.directory(),
        &StoreConfig::default(),
        LiveConfig::default().pane_us,
        &reference::reports_of(&source),
    );
    assert!(
        oracle.alias_stats().decode_upgrades > 0,
        "CFO-keyed identities must exercise the alias path"
    );
    engine_matches_reference_and_replay("cfo-keyed", &source, LiveConfig::default().pane_us);
}

#[test]
fn phy_campus_matches_the_reference_fold_and_replay() {
    let city = PhyCity::campus(2, 8, 21);
    engine_matches_reference_and_replay("phy-campus", &city, city.epoch_us());
}
