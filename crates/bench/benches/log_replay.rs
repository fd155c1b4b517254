//! Durability-tier benchmark: sealed-pane log write throughput, verified
//! replay throughput, and crash-recovery time, around a logged online
//! ingest run.
//!
//! Besides the Criterion timing, the bench pins the fingerprint triangle:
//! the verified log replay must equal both the live engine's chain and the
//! `caraoke_city::reference` fold of the same source. The final log is left at
//! `target/bench-log` so CI can run `logtool verify` against a real
//! artifact.
//!
//! Throughput numbers are best-of-3 (see `crates/bench/README.md`: the
//! shared-container noise floor is around ±20% for single runs).

use caraoke_city::{reference, FrameSource, StoreConfig, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig};
use caraoke_log::{LogCity, LogOptions, LogReader, LogRecord, PaneRecord, SegmentWriter};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::Instant;

const POLES: usize = 100;
const EPOCHS: usize = 600;
const WORKERS: usize = 8;
const SHARDS: usize = 8;

fn config() -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards: SHARDS,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn target_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join(name)
}

/// Pole-striped multi-threaded delivery (FIFO per pole), the same shape
/// as `LiveDriver::PoleStriped` — which cannot inject a logged engine.
fn stream(live: &LiveCity, source: &SyntheticCity) {
    let n_poles = source.directory().len() as u32;
    let epochs = source.epochs();
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let live = &live;
            scope.spawn(move || {
                for epoch in 0..epochs {
                    for pole in (w as u32..n_poles).step_by(WORKERS) {
                        live.ingest(&source.report(pole, epoch));
                    }
                }
            });
        }
    });
}

/// One logged online run into `dir` (recreated), returning
/// `(obs_per_sec, chain, totals)`.
fn logged_run(source: &SyntheticCity, dir: &PathBuf) -> (f64, u64, caraoke_city::CityAggregates) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let live = LiveCity::with_log(
        source.directory().clone(),
        config(),
        dir,
        LogOptions::default(),
    )
    .expect("create logged engine");
    stream(&live, source);
    live.finish();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = live.stats();
    assert_eq!(stats.shed_reports, 0, "FIFO delivery must not shed");
    assert_eq!(stats.log_errors_fatal, 0, "the pane log must stay writable");
    assert_eq!(stats.sealed_panes as usize, EPOCHS);
    (
        stats.observations as f64 / elapsed,
        live.fingerprint_chain(),
        live.totals(),
    )
}

fn bench(c: &mut Criterion) {
    let source = SyntheticCity::new(POLES, EPOCHS, 23);
    let log_dir = target_dir("bench-log");

    // Logged online ingest, best of 3; the last run's log stays on disk
    // for the verified-replay measurements and CI's `logtool verify`.
    let (mut online_best, mut chain, mut totals) = logged_run(&source, &log_dir);
    for _ in 0..2 {
        let (obs_per_sec, rerun_chain, rerun_totals) = logged_run(&source, &log_dir);
        assert_eq!(rerun_chain, chain, "logged runs must be deterministic");
        online_best = online_best.max(obs_per_sec);
        chain = rerun_chain;
        totals = rerun_totals;
    }

    // Verified replay (every record re-CRC'd, every fingerprint and the
    // whole chain recomputed), best of 3.
    let mut replay_panes_per_sec = 0.0f64;
    let mut replay = None;
    for _ in 0..3 {
        let start = Instant::now();
        let run = LogCity::open(&log_dir).replay().expect("verified replay");
        let elapsed = start.elapsed().as_secs_f64();
        replay_panes_per_sec = replay_panes_per_sec.max(run.panes as f64 / elapsed);
        replay = Some(run);
    }
    let replay = replay.expect("at least one replay");
    assert_eq!(replay.chain, chain, "replay chain == live chain");
    assert_eq!(replay.totals, totals, "replay totals == live totals");

    // The third side of the triangle: the reference fold.
    let oracle = reference::fold(
        source.directory(),
        &config().store,
        config().pane_us,
        &reference::reports_of(&source),
    );
    assert_eq!(
        oracle.totals(),
        totals,
        "the reference fold must equal the logged run's totals"
    );
    assert_eq!(oracle.chain(), chain, "the reference chain == live chain");

    // Pure write throughput: re-append the decoded pane records to a
    // scratch log (no sealing or ingest in the loop), best of 3.
    let panes: Vec<PaneRecord> = LogReader::open(&log_dir)
        .expect("open log")
        .records()
        .map(|record| record.expect("clean record"))
        .filter_map(|record| match record {
            LogRecord::Pane(pane) => Some(pane),
            _ => None,
        })
        .collect();
    assert_eq!(panes.len(), EPOCHS);
    let scratch = target_dir("bench-log-write-scratch");
    let mut write_panes_per_sec = 0.0f64;
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&scratch);
        let start = Instant::now();
        let mut writer =
            SegmentWriter::create(&scratch, LogOptions::default()).expect("create scratch log");
        for p in &panes {
            writer
                .append_pane(
                    p.pane,
                    p.forced,
                    p.pole_misses,
                    p.fingerprint,
                    p.chain,
                    &p.aggregates,
                    &p.deltas,
                )
                .expect("append pane");
            writer.commit_seal().expect("commit");
        }
        writer.sync().expect("final sync");
        let elapsed = start.elapsed().as_secs_f64();
        write_panes_per_sec = write_panes_per_sec.max(panes.len() as f64 / elapsed);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Crash recovery: rebuild a live engine from the log (watermark
    // frontiers, tracker state, window ring, chain), best-of-3 smallest.
    let mut recovery_ms = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let recovered = LiveCity::recover(
            &log_dir,
            source.directory().clone(),
            config(),
            LogOptions::default(),
        )
        .expect("recover from pane log");
        recovery_ms = recovery_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(recovered.fingerprint_chain(), chain);
        drop(recovered);
    }

    println!(
        "log_replay: {} panes / {} observations -> {:.0} obs/s logged online, \
         {:.0} panes/s write, {:.0} panes/s verified replay, {:.1} ms recovery \
         (chain {:#018x})",
        EPOCHS,
        totals.observations,
        online_best,
        write_panes_per_sec,
        replay_panes_per_sec,
        recovery_ms,
        chain,
    );

    match caraoke_bench::write_bench_json(
        "log",
        &[
            ("poles", POLES.to_string()),
            ("epochs", EPOCHS.to_string()),
            ("workers", WORKERS.to_string()),
            ("shards", SHARDS.to_string()),
        ],
        &[
            ("observations", totals.observations.to_string()),
            ("logged_online_obs_per_sec", format!("{online_best:.0}")),
            ("write_panes_per_sec", format!("{write_panes_per_sec:.0}")),
            ("replay_panes_per_sec", format!("{replay_panes_per_sec:.0}")),
            ("recovery_ms", format!("{recovery_ms:.1}")),
            ("chain_fingerprint", format!("\"{chain:#018x}\"")),
            ("triangle_closed", "true".to_string()),
        ],
    ) {
        Ok(path) => println!("log_replay: wrote {}", path.display()),
        Err(err) => eprintln!("log_replay: could not write BENCH_log.json: {err}"),
    }

    c.bench_function("log_replay_verified_600_panes", |b| {
        b.iter(|| {
            std::hint::black_box(
                LogCity::open(&log_dir)
                    .replay()
                    .expect("verified replay")
                    .panes,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench
}
criterion_main!(benches);
