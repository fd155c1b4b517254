//! End-to-end tests for the durability tier: the fingerprint triangle
//! (live chain == verified log replay == the reference fold), 16-thread
//! kill-and-recover resuming byte-identical to an uninterrupted run, and
//! verified replay refusing a tampered log.

use caraoke_suite::city::{reference, FrameSource, StoreConfig, SyntheticCity};
use caraoke_suite::live::{LiveCity, LiveConfig};
use caraoke_suite::log::{segment, LogCity, LogOptions, LogReader};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;

const INGEST_THREADS: usize = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(shards: usize) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards,
            ..Default::default()
        },
        retain_panes: 8,
        ..Default::default()
    }
}

/// Streams `source` into `live` from 16 threads, each owning a stripe of
/// poles and delivering its poles' streams in a seeded random merge —
/// FIFO per pole (the watermark contract), cross-pole order free. Only
/// epochs with `from_us <= t < until_us` are delivered, so the same
/// helper drives full runs, crashed prefixes, and post-recovery
/// re-delivery from the seal floor.
fn stream(live: &LiveCity, source: &SyntheticCity, seed: u64, from_us: u64, until_us: u64) {
    let n_poles = source.directory().len() as u32;
    let epoch_us = source.epoch_us();
    let epochs: Vec<usize> = (0..source.epochs())
        .filter(|&e| {
            let t = e as u64 * epoch_us;
            from_us <= t && t < until_us
        })
        .collect();
    std::thread::scope(|scope| {
        for w in 0..INGEST_THREADS {
            let live = &live;
            let epochs = &epochs;
            scope.spawn(move || {
                let poles: Vec<u32> = (w as u32..n_poles).step_by(INGEST_THREADS).collect();
                if poles.is_empty() {
                    return;
                }
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37));
                let mut next = vec![0usize; poles.len()];
                let mut alive: Vec<usize> = (0..poles.len()).collect();
                while !alive.is_empty() {
                    let i = rng.random_range(0..alive.len());
                    let slot = alive[i];
                    live.ingest(&source.report(poles[slot], epochs[next[slot]]));
                    next[slot] += 1;
                    if next[slot] == epochs.len() {
                        alive.swap_remove(i);
                    }
                }
            });
        }
    });
}

#[test]
fn the_fingerprint_triangle_closes() {
    // One source, three independent derivations of the same aggregates:
    // (a) a logged live engine under 16-thread randomized delivery,
    // (b) a verified replay of the pane log it wrote,
    // (c) the single-threaded reference fold — all fingerprint-equal.
    let dir = scratch("triangle");
    let source = SyntheticCity::new(32, 12, 9001);
    let live = LiveCity::with_log(
        source.directory().clone(),
        config(4),
        &dir,
        LogOptions::default(),
    )
    .expect("create logged engine");
    stream(&live, &source, 7, 0, u64::MAX);
    live.finish();
    let chain = live.fingerprint_chain();
    let totals = live.totals();
    let stats = live.stats();
    assert!(totals.observations > 1_000, "workload too small");
    assert_eq!(stats.log_errors_fatal, 0);
    assert_eq!(stats.shed_reports, 0);
    drop(live);

    let replay = LogCity::open(&dir).replay().expect("verified replay");
    assert_eq!(replay.chain, chain, "log replay chain == live chain");
    assert_eq!(replay.totals, totals, "log replay totals == live totals");
    assert_eq!(replay.torn_tail_bytes, 0);

    let oracle = reference::fold(
        source.directory(),
        &config(4).store,
        config(4).pane_us,
        &reference::reports_of(&source),
    );
    assert_eq!(
        oracle.totals().fingerprint(),
        replay.totals.fingerprint(),
        "reference fingerprint == replay fingerprint"
    );
    assert_eq!(oracle.totals(), replay.totals);
    assert_eq!(
        oracle.chain(),
        replay.chain,
        "reference chain == replay chain"
    );
}

#[test]
fn sixteen_thread_kill_and_recover_matches_the_uninterrupted_run() {
    let source = SyntheticCity::new(32, 16, 777);
    let epoch_us = source.epoch_us();

    // The uninterrupted reference: a logged run over the whole stream.
    let ref_dir = scratch("kill-reference");
    let reference = LiveCity::with_log(
        source.directory().clone(),
        config(8),
        &ref_dir,
        LogOptions::default(),
    )
    .expect("reference engine");
    stream(&reference, &source, 11, 0, u64::MAX);
    reference.finish();
    let ref_chain = reference.fingerprint_chain();
    let ref_totals = reference.totals();
    drop(reference);

    // The crashed run: 16 threads deliver the first 10 epochs, then the
    // engine is dropped mid-stream without finish() — the sealer drains
    // its outstanding watermark target and stops, like a clean-ish crash.
    let crash_us = 10 * epoch_us;
    let dir = scratch("kill-crash");
    let crashed = LiveCity::with_log(
        source.directory().clone(),
        config(8),
        &dir,
        LogOptions::default(),
    )
    .expect("crashed engine");
    stream(&crashed, &source, 13, 0, crash_us);
    drop(crashed);

    // Recovery resumes at the first unsealed pane; re-delivering every
    // report at or above the floor (exactly-once) must land the run on
    // the reference chain byte for byte.
    let recovered = LiveCity::recover(
        &dir,
        source.directory().clone(),
        config(8),
        LogOptions::default(),
    )
    .expect("recover from pane log");
    let floor_us = recovered.stats().seal_floor_us;
    assert!(floor_us > 0, "the crashed run sealed panes before dying");
    assert!(floor_us <= crash_us, "floor cannot outrun delivery");
    stream(&recovered, &source, 17, floor_us, u64::MAX);
    recovered.finish();
    let stats = recovered.stats();
    assert_eq!(stats.shed_reports, 0, "re-delivery from the floor is exact");
    assert_eq!(stats.log_errors_fatal, 0);
    assert_eq!(
        recovered.fingerprint_chain(),
        ref_chain,
        "recovered chain == uninterrupted chain"
    );
    assert_eq!(recovered.totals(), ref_totals);
    drop(recovered);

    // The stitched log (pre-crash segments + post-recovery segments)
    // replays clean to the same chain.
    let replay = LogCity::open(&dir).replay().expect("verified replay");
    assert_eq!(replay.chain, ref_chain);
    assert_eq!(replay.totals, ref_totals);
    assert_eq!(replay.torn_tail_bytes, 0, "reopen repaired any torn tail");
}

#[test]
fn verified_replay_refuses_a_tampered_log() {
    let dir = scratch("tamper");
    let source = SyntheticCity::new(8, 6, 5);
    let live = LiveCity::with_log(
        source.directory().clone(),
        config(2),
        &dir,
        LogOptions::default(),
    )
    .expect("logged engine");
    stream(&live, &source, 3, 0, u64::MAX);
    live.finish();
    drop(live);
    LogCity::open(&dir).replay().expect("clean log verifies");

    // Flip one byte inside the first record's payload: the length and CRC
    // prefix stay intact, so the damage is caught by the CRC check, not
    // framing.
    let first = LogReader::open(&dir).expect("open log").segments()[0].clone();
    let path = dir.join(first);
    let mut bytes = std::fs::read(&path).expect("read segment");
    let payload_start = (segment::HEADER_LEN + 8) as usize;
    bytes[payload_start] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write tampered segment");
    let err = LogCity::open(&dir).replay().expect_err("tamper detected");
    assert!(
        matches!(err, caraoke_suite::log::LogError::Crc { .. }),
        "expected a CRC error, got {err}"
    );
}
