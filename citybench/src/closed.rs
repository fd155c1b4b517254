//! The closed-loop workloads, `firehose` and `phy-campus`: two
//! pole-striped ingest threads, each sending its next epoch once the engine
//! has sealed up to a few panes behind that thread's own epoch.
//!
//! A run sends a fixed number of epochs, `seconds` times the workload's
//! nominal epoch rate on a 2-core machine, so every run of a seed does the
//! same work and ends with the same state.

use crate::outcome::{peak_rss_mb, Outcome};
use crate::probes::{eval_ms, log_figures, serve_probe};
use crate::rules::PaneClock;
use crate::stats::{chunked_tail, median};
use crate::trace::{Kind, Tracer};
use crate::{stages, Settings, SETUPS};
use caraoke_bench::query_scale::scale_queries;
use caraoke_city::{FrameSource, PhyCity, PoleDirectory, PoleReport, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig};
use caraoke_log::{LogOptions, SegmentWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pole-striped ingest threads.
pub const THREADS: usize = 2;
/// Poles in the firehose city.
pub const FIREHOSE_POLES: usize = 2_000;
/// Epoch count handed to sources; the stream sends its own count.
const OPEN_ENDED: usize = 1 << 40;
/// Regenerated reports the phy-campus run compares with those it sent.
const SPOT_CHECKS: usize = 16;
/// Campus epochs the traced run's stage probe covers.
const STAGE_EPOCHS: usize = 3;
/// Chunks of epochs a throughput figure is the median over.
const RATE_CHUNKS: usize = 8;

/// What the ingest threads of one closed-loop stream did.
struct Stream {
    origin: Instant,
    epochs: u64,
    reports: u64,
    observations: u64,
    stream_s: f64,
    /// `[epoch]`: when the later stripe handed its last report of the
    /// epoch to `ingest`.
    epoch_sent: Vec<Instant>,
    /// `[epoch]`: observations sent in the epoch.
    epoch_obs: Vec<u64>,
    /// Per report, epoch by epoch: µs since `origin` when it was sent.
    sent_us: Vec<u32>,
    /// Per report, epoch by epoch: ns from the thread being ready to send
    /// it (its previous `ingest` returned) to handing it to `ingest`.
    send_delay_ns: Vec<u32>,
    /// `[pane]`: when the watcher saw the pane sealed.
    sealed_at: Vec<Instant>,
    /// Time the ingest threads spent in `wait_seal_floor`, s.
    wait_s: f64,
    /// The reports sent, when recorded.
    sent: Vec<PoleReport>,
    tracer: Tracer,
}

/// One ingest thread's share of a [`Stream`].
struct Lane {
    reports: u64,
    observations: u64,
    last_send: Vec<Instant>,
    epoch_obs: Vec<u64>,
    sent_us: Vec<u32>,
    send_delay_ns: Vec<u32>,
    wait_ns: u64,
    sent: Vec<PoleReport>,
    tracer: Tracer,
}

/// Streams `epochs` epochs of `source` into `live` from [`THREADS`]
/// pole-striped threads.
///
/// A third thread watches seals: it blocks in `wait_seal_floor` for each
/// pane the threads have released, so its timestamps mark the seal itself.
fn stream<S: FrameSource + Sync>(
    source: &S,
    live: &LiveCity,
    clock: PaneClock,
    epochs: u64,
    trace: bool,
    record: bool,
) -> Stream {
    let n_poles = source.directory().len() as u32;
    let origin = Instant::now();
    let done: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();

    let (lanes, sealed_at) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let done = &done;
                scope.spawn(move || {
                    let stripe = (w as u32..n_poles).step_by(THREADS);
                    let per_run = stripe.len() * epochs as usize;
                    let mut lane = Lane {
                        reports: 0,
                        observations: 0,
                        last_send: Vec::with_capacity(epochs as usize),
                        epoch_obs: Vec::with_capacity(epochs as usize),
                        sent_us: Vec::with_capacity(per_run),
                        send_delay_ns: Vec::with_capacity(per_run),
                        wait_ns: 0,
                        sent: Vec::new(),
                        tracer: Tracer::new(trace, origin, w as u64 + 1),
                    };
                    let mut ready = Instant::now();
                    for epoch in 0..epochs {
                        let epoch_start = lane.tracer.start();
                        let epoch_id = lane.tracer.reserve();
                        let mut last = origin;
                        let observations = lane.observations;
                        for pole in stripe.clone() {
                            let t = lane.tracer.start();
                            let report = source.report(pole, epoch as usize);
                            lane.tracer.end(Kind::Report, t, epoch_id);
                            last = Instant::now();
                            let delay = (last - ready).as_nanos();
                            lane.send_delay_ns
                                .push(u32::try_from(delay).unwrap_or(u32::MAX));
                            let at = (last - origin).as_micros();
                            lane.sent_us.push(u32::try_from(at).unwrap_or(u32::MAX));
                            live.ingest(&report);
                            ready = Instant::now();
                            if lane.tracer.on() {
                                lane.tracer.record(Kind::Ingest, last, ready, epoch_id);
                            }
                            lane.reports += 1;
                            lane.observations += report.observations.len() as u64;
                            if record {
                                lane.sent.push(report);
                            }
                        }
                        lane.last_send.push(last);
                        lane.epoch_obs.push(lane.observations - observations);
                        done[w].store(epoch + 1, Ordering::SeqCst);
                        if let Some(floor) = clock.pace_floor_us(epoch) {
                            let t = Instant::now();
                            live.wait_seal_floor(floor);
                            lane.wait_ns += t.elapsed().as_nanos() as u64;
                            lane.tracer
                                .record(Kind::SealWait, t, Instant::now(), epoch_id);
                        }
                        if let Some(start) = epoch_start {
                            lane.tracer
                                .record_as(epoch_id, Kind::Epoch, start, Instant::now(), 0);
                        }
                    }
                    lane
                })
            })
            .collect();

        // Only panes every thread has released are waited for, so the
        // watcher never blocks on a pane that needs `finish`.
        let released = clock.sealable_after(epochs - 1);
        let done = &done;
        let watcher = scope.spawn(move || {
            let mut sealed_at = Vec::with_capacity(released as usize);
            while (sealed_at.len() as u64) < released {
                let next = sealed_at.len() as u64;
                let delivered = done
                    .iter()
                    .map(|d| d.load(Ordering::SeqCst))
                    .min()
                    .unwrap_or(0);
                if delivered > 0 && next < clock.sealable_after(delivered - 1) {
                    live.wait_seal_floor((next + 1) * clock.pane_us);
                    sealed_at.push(Instant::now());
                } else {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
            sealed_at
        });
        let lanes: Vec<Lane> = handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect();
        (lanes, watcher.join().expect("seal watcher panicked"))
    });
    let stream_s = origin.elapsed().as_secs_f64();

    // Merge the lanes epoch by epoch, so per-report samples are in time
    // order.
    let stripes: Vec<usize> = lanes
        .iter()
        .map(|l| l.sent_us.len() / epochs as usize)
        .collect();
    let total_reports: usize = lanes.iter().map(|l| l.sent_us.len()).sum();
    let mut out = Stream {
        origin,
        epochs,
        reports: lanes.iter().map(|l| l.reports).sum(),
        observations: lanes.iter().map(|l| l.observations).sum(),
        stream_s,
        epoch_sent: Vec::with_capacity(epochs as usize),
        epoch_obs: Vec::with_capacity(epochs as usize),
        sent_us: Vec::with_capacity(total_reports),
        send_delay_ns: Vec::with_capacity(total_reports),
        sealed_at,
        wait_s: lanes.iter().map(|l| l.wait_ns as f64 / 1e9).sum(),
        sent: Vec::new(),
        tracer: Tracer::new(trace, origin, 0),
    };
    for e in 0..epochs as usize {
        out.epoch_sent
            .push(lanes.iter().map(|l| l.last_send[e]).max().expect("threads"));
        out.epoch_obs
            .push(lanes.iter().map(|l| l.epoch_obs[e]).sum());
        for (lane, &n) in lanes.iter().zip(&stripes) {
            out.sent_us
                .extend_from_slice(&lane.sent_us[e * n..(e + 1) * n]);
            out.send_delay_ns
                .extend_from_slice(&lane.send_delay_ns[e * n..(e + 1) * n]);
        }
    }
    for lane in lanes {
        out.sent.extend(lane.sent);
        out.tracer.absorb(lane.tracer);
    }
    out
}

/// Seals `epochs` epochs of reports into a fresh engine from one thread
/// (paced like the stream) and returns its chain and totals fingerprint.
fn reference_chain(
    live_config: LiveConfig,
    directory: &PoleDirectory,
    clock: PaneClock,
    epochs: u64,
    report: impl Fn(u32, u64) -> PoleReport,
) -> (u64, u64) {
    let live = LiveCity::new(directory.clone(), live_config);
    for epoch in 0..epochs {
        for pole in 0..directory.len() as u32 {
            live.ingest(&report(pole, epoch));
        }
        if let Some(floor) = clock.pace_floor_us(epoch) {
            live.wait_seal_floor(floor);
        }
    }
    live.finish();
    (live.fingerprint_chain(), live.totals().fingerprint())
}

/// Median over [`RATE_CHUNKS`] consecutive, equally long runs of epochs of
/// `per_epoch` units per second (the whole-stream rate when there are too
/// few epochs to chunk), so a transient stall moves one chunk, not the
/// figure.
fn chunked_rate(origin: Instant, done: &[Instant], per_epoch: &[u64]) -> f64 {
    let n = done.len();
    let edges: Vec<usize> = if n >= 2 * RATE_CHUNKS {
        (0..=RATE_CHUNKS).map(|c| c * n / RATE_CHUNKS).collect()
    } else {
        vec![0, n]
    };
    let rates: Vec<f64> = edges
        .windows(2)
        .map(|w| {
            let start = if w[0] == 0 { origin } else { done[w[0] - 1] };
            let units: u64 = per_epoch[w[0]..w[1]].iter().sum();
            units as f64 / (done[w[1] - 1] - start).as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Sources a closed-loop workload can stream.
trait ClosedSource: FrameSource + Sync + Sized {
    /// Epochs per second the workload sends on a 2-core machine; a run of
    /// `seconds` sends this many per second of it.
    const NOMINAL_EPOCHS_PER_S: f64;
    /// Whether the reference replays the stream's recorded reports instead
    /// of regenerating them (a second PHY pass would double the run; a spot
    /// check regenerates some instead).
    const RECORD: bool;
    /// PHY pole queries computed per report, given `reports` sent.
    fn phy_queries_per_report(&self, reports: u64) -> f64;
    /// Regenerates a few sent reports from a fresh source and compares.
    fn spot_check(&self, _fresh: &Self, _sent: &[PoleReport], _problems: &mut Vec<String>) {}
}

impl ClosedSource for SyntheticCity {
    const NOMINAL_EPOCHS_PER_S: f64 = 85.0;
    const RECORD: bool = false;
    fn phy_queries_per_report(&self, _reports: u64) -> f64 {
        0.0
    }
}

impl ClosedSource for PhyCity {
    const NOMINAL_EPOCHS_PER_S: f64 = 30.0;
    const RECORD: bool = true;
    /// Each report queries its own pole and its street neighbour; memo hits
    /// are the queries not computed.
    fn phy_queries_per_report(&self, reports: u64) -> f64 {
        (2 * reports).saturating_sub(self.query_cache_hits()) as f64 / reports.max(1) as f64
    }
    fn spot_check(&self, fresh: &Self, sent: &[PoleReport], problems: &mut Vec<String>) {
        let step = (sent.len() / SPOT_CHECKS).max(1);
        for report in sent.iter().step_by(step) {
            let epoch = (report.timestamp_us / fresh.epoch_us()) as usize;
            if fresh.report(report.pole.0, epoch) != *report {
                problems.push(format!(
                    "pole {} epoch {epoch}: sent report differs from a fresh single-threaded PhyCity",
                    report.pole.0
                ));
            }
        }
    }
}

/// The firehose workload: backfill at maximum rate through `live` ingest
/// and seal, bypassing the log, the serving tier and the PHY.
pub fn firehose(settings: &Settings, trace: bool) -> Outcome {
    let config = format!(
        "{{\"workload\": \"firehose\", \"loop\": \"closed\", \"source\": \"SyntheticCity cfo_keyed\", \
         \"poles\": {FIREHOSE_POLES}, \"ingest_threads\": {THREADS}, \"pace\": \"own epoch, pane e-3\", \
         \"epochs_per_s\": {}, \"live_config\": \"default\", \"log\": false, \"serve\": false}}",
        SyntheticCity::NOMINAL_EPOCHS_PER_S
    );
    closed_workload(settings, trace, config, || {
        let mut city = SyntheticCity::new(FIREHOSE_POLES, OPEN_ENDED, settings.seed);
        city.cfo_keyed = true;
        city
    })
}

/// The phy-campus workload: the full reader pipeline (sim, phy, dsp, core,
/// geom) on the 32-pole campus, ingested like the firehose.
pub fn phy_campus(settings: &Settings, trace: bool) -> Outcome {
    let config = format!(
        "{{\"workload\": \"phy-campus\", \"loop\": \"closed\", \"source\": \"PhyCity::campus\", \
         \"poles_per_street\": {}, \"ingest_threads\": {THREADS}, \"pace\": \"own epoch, pane e-3\", \
         \"epochs_per_s\": {}, \"live_config\": \"default\", \"log\": false, \"serve\": false}}",
        stages::POLES_PER_STREET,
        PhyCity::NOMINAL_EPOCHS_PER_S
    );
    closed_workload(settings, trace, config, || {
        PhyCity::campus(stages::POLES_PER_STREET, OPEN_ENDED, settings.seed)
    })
}

fn closed_workload<S: ClosedSource>(
    settings: &Settings,
    trace: bool,
    config: String,
    build: impl Fn() -> S,
) -> Outcome {
    let live_config = LiveConfig::default();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let source = build();
        let live = Arc::new(LiveCity::new(source.directory().clone(), live_config));
        setup.push(t.elapsed().as_secs_f64());
        built = Some((source, live));
    }
    let (source, live) = built.expect("at least one set-up");
    let clock = PaneClock {
        epoch_us: source.epoch_us(),
        pane_us: live_config.pane_us,
        lateness_panes: live_config.lateness_panes,
    };
    // At least enough epochs to release a pane.
    let epochs = ((settings.seconds * S::NOMINAL_EPOCHS_PER_S).ceil() as u64)
        .max(clock.release_epoch(0) + 1);

    let run = stream(&source, &live, clock, epochs, trace, S::RECORD);
    let t = Instant::now();
    live.finish();
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut problems = Vec::new();
    let stats = live.stats();
    let failed = stats.shed_observations + stats.overflow_shed;
    if stats.observations != run.observations || failed != 0 || stats.shed_reports != 0 {
        problems.push(format!(
            "sealed {} of {} observations generated (shed {}, overflow {}, shed reports {})",
            stats.observations,
            run.observations,
            stats.shed_observations,
            stats.overflow_shed,
            stats.shed_reports
        ));
    }
    let chain = live.fingerprint_chain();
    let totals = live.totals().fingerprint();
    let directory = source.directory().clone();
    let n_poles = directory.len() as u64;
    let reference = if S::RECORD {
        let mut by_slot = vec![None; (epochs * n_poles) as usize];
        for report in &run.sent {
            let epoch = report.timestamp_us / clock.epoch_us;
            by_slot[(epoch * n_poles + report.pole.0 as u64) as usize] = Some(report);
        }
        if by_slot.iter().any(Option::is_none) {
            problems.push("the stream skipped a (pole, epoch) report".into());
            (0, 0)
        } else {
            reference_chain(live_config, &directory, clock, epochs, |pole, epoch| {
                by_slot[(epoch * n_poles + pole as u64) as usize]
                    .expect("checked above")
                    .clone()
            })
        }
    } else {
        reference_chain(live_config, &directory, clock, epochs, |pole, epoch| {
            source.report(pole, epoch as usize)
        })
    };
    if reference != (chain, totals) {
        problems.push(format!(
            "chain {chain:#x} / totals {totals:#x} differ from the single-thread reference {:#x} / {:#x}",
            reference.0, reference.1
        ));
    }
    source.spot_check(&build(), &run.sent, &mut problems);

    // Delivery, per report: from its send to the watcher seeing its pane
    // sealed (reports in panes only `finish` seals are not timed).
    let per_epoch = n_poles as usize;
    let delivery_us: Vec<u32> = (0..epochs as usize)
        .filter_map(|e| {
            let sealed = run.sealed_at.get(clock.pane_of(e as u64) as usize)?;
            Some((e, (*sealed - run.origin).as_micros() as u64))
        })
        .flat_map(|(e, sealed_us)| {
            run.sent_us[e * per_epoch..(e + 1) * per_epoch]
                .iter()
                .map(move |&sent| sealed_us.saturating_sub(u64::from(sent)) as u32)
        })
        .collect();
    let delivery = chunked_tail(&delivery_us, 1e-3, 99.0);
    // Generator lateness: a closed loop sends each report as soon as the
    // previous one is ingested, so a report is late by the time from that
    // moment to its send: generating it, plus any backpressure wait.
    let late = chunked_tail(&run.send_delay_ns, 1e-6, 99.0);
    let all_reports = vec![n_poles; run.epoch_sent.len()];
    let obs_per_s = chunked_rate(run.origin, &run.epoch_sent, &run.epoch_obs);
    let queries_per_s = chunked_rate(run.origin, &run.epoch_sent, &all_reports);

    let queries = scale_queries();
    let eval = eval_ms(&live, &queries);
    // Durability probe: the stream ran without a log, so attach one now
    // (a snapshot of the finished engine) and time reading it back.
    let log_dir = settings.work_dir.join("snapshot-log");
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut tracer = run.tracer;
    let mut serve = Default::default();
    let mut log = Default::default();
    match SegmentWriter::create(&log_dir, LogOptions::default()).and_then(|w| live.reattach_log(w))
    {
        Ok(()) => {
            serve = serve_probe(&live, &log_dir, &queries, &mut tracer, &mut problems);
            let sealed = live.sealed_panes();
            drop(live);
            log = log_figures(
                &log_dir,
                &directory,
                live_config,
                chain,
                sealed,
                &mut problems,
            );
        }
        Err(e) => problems.push(format!("attaching the snapshot log failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&log_dir);

    let mut stage = stages::StageTimes::default();
    if trace {
        let mut stage_tracer = Tracer::new(true, Instant::now(), THREADS as u64 + 2);
        match stages::run(
            &stages::Campus::new(),
            STAGE_EPOCHS,
            settings.seed,
            &mut stage_tracer,
        ) {
            Ok(times) => stage = times,
            Err(e) => problems.push(e),
        }
        tracer.absorb(stage_tracer);
    }

    let report_ns = tracer.total_ns(Kind::Report) as f64;
    let mut per_layer = vec![
        ("city.gen_late_p99_ms", late.value),
        (
            "city.gen_ns_per_obs",
            report_ns / run.observations.max(1) as f64,
        ),
        (
            "city.report_ms",
            report_ns / tracer.calls(Kind::Report).max(1) as f64 / 1e6,
        ),
        (
            "city.phy_queries_per_report",
            source.phy_queries_per_report(run.reports),
        ),
        ("phy.synth_us", stage.synth_us),
        ("dsp.fft_us", stage.fft_us),
        ("core.analyze_us", stage.analyze_us),
        ("core.aoa_us", stage.aoa_us),
        ("geom.fix_us", stage.fix_us),
        (
            "live.ingest_ns_per_obs",
            tracer.total_ns(Kind::Ingest) as f64 / run.observations.max(1) as f64,
        ),
        (
            "live.seal_wait_frac",
            run.wait_s / (run.stream_s * THREADS as f64),
        ),
        ("live.finish_ms", finish_ms),
        ("live.seal_lag_p50_ms", delivery.p50),
        ("live.seal_lag_p99_ms", delivery.value),
        ("log.bytes_per_pane", log.bytes_per_pane),
        ("log.replay_s", log.replay_s),
        ("log.follow_ms", log.follow_ms),
        ("log.recover_s", log.recover_s),
        ("serve.eval_ms", eval),
    ];
    per_layer.extend(serve.metrics(&tracer));
    per_layer.push(("trace.spans", tracer.span_count() as f64));

    Outcome {
        problems,
        attempted: run.observations,
        failed,
        end_to_end: vec![
            ("obs_per_s", obs_per_s),
            ("queries_per_s", queries_per_s),
            ("delivery_p50_ms", delivery.p50),
            ("delivery_p99_ms", delivery.value),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        per_layer,
        notes: vec![
            format!(
                "epochs {} reports {} observations {} stream {:.3} s",
                run.epochs, run.reports, run.observations, run.stream_s
            ),
            format!("delivery (report sent to pane sealed): {delivery}"),
            format!("gen_late (ready to send): {late}"),
        ],
        config,
        tracer,
        headline: if S::RECORD {
            ("queries_per_s", queries_per_s, true)
        } else {
            ("obs_per_s", obs_per_s, true)
        },
    }
}
