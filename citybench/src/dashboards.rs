//! The dashboards workload: the production path. One generator thread sends
//! a 250-pole city on a fixed schedule (open loop) into a logged engine; a
//! serving hub fans the dashboard queries out over loopback TCP to one
//! subscriber, which times every pane from its release to its receipt.

use crate::outcome::{peak_rss_mb, Outcome};
use crate::probes::{eval_ms, log_figures, ServeFigures};
use crate::rules::{PaneClock, PaneCursor};
use crate::stats::{chunked_tail, median};
use crate::trace::{Kind, Tracer};
use crate::{stages, Settings, SETUPS};
use caraoke_bench::query_scale::scale_queries;
use caraoke_city::{FrameSource, PoleReport, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig, LiveQuery};
use caraoke_log::LogOptions;
use caraoke_serve::{
    encode_answer, ClientRead, Frame, ServeClient, ServeConfig, ServeHub, ServeServer,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poles in the dashboards city.
pub const POLES: usize = 250;
/// Wall time between epochs (the open-loop schedule).
pub const EPOCH_PERIOD: Duration = Duration::from_millis(40);
/// Fewest epochs a run sends, so the delivery p99 has at least ten
/// samples beyond it (four queries per pane).
pub const MIN_EPOCHS: u64 = 260;
/// Whether a pane released by `release_epoch` is timed: the final epoch's
/// pane is released immediately before `finish`, which flushes it with the
/// rest of the tail, so it is delivered through the flush, not the stream.
fn timed(release_epoch: u64, epochs: u64) -> bool {
    release_epoch + 1 < epochs
}

/// How long the subscriber blocks for a frame before checking whether the
/// run is over; a frame ends the wait at once, so this sets only how
/// often an idle subscriber wakes.
const POLL_TIMEOUT: Duration = Duration::from_millis(10);
/// How long the subscriber may take to drain after `finish`.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Campus epochs the traced run's stage probe covers.
const STAGE_EPOCHS: usize = 3;

/// Everything one set-up builds, torn down in dependency order on drop.
struct Rig {
    source: SyntheticCity,
    live: Arc<LiveCity>,
    hub: Arc<ServeHub>,
    server: ServeServer,
    client: ServeClient,
    log_dir: PathBuf,
}

impl Rig {
    fn build(settings: &Settings, index: usize, queries: &[LiveQuery]) -> std::io::Result<Self> {
        let mut source = SyntheticCity::new(POLES, usize::MAX, settings.seed);
        source.cfo_keyed = true;
        let log_dir = settings.work_dir.join(format!("dashboards-log-{index}"));
        let _ = std::fs::remove_dir_all(&log_dir);
        let live = Arc::new(LiveCity::with_log(
            source.directory().clone(),
            LiveConfig::default(),
            &log_dir,
            LogOptions::default(),
        )?);
        let hub = ServeHub::over_live(
            Arc::clone(&live),
            Some(log_dir.clone()),
            ServeConfig::default(),
        );
        let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0")?;
        let mut client = ServeClient::connect(server.local_addr())?;
        for (i, q) in queries.iter().enumerate() {
            client.subscribe(i as u32, q, false)?;
        }
        Ok(Self {
            source,
            live,
            hub,
            server,
            client,
            log_dir,
        })
    }

    /// Closes the subscriber, the server and the hub, returning the engine
    /// (its last `Arc`) so the caller decides when its log closes.
    fn close(self) -> (SyntheticCity, LiveCity, PathBuf) {
        let Rig {
            source,
            live,
            hub,
            mut server,
            client,
            log_dir,
        } = self;
        drop(client);
        server.shutdown();
        hub.shutdown();
        drop(hub);
        let live = Arc::into_inner(live).expect("the hub released the engine");
        (source, live, log_dir)
    }
}

/// What the subscriber thread saw.
struct Received {
    figures: ServeFigures,
    /// ms from release due to receipt, per query and timed pane, in
    /// arrival order.
    delivery_ms: Vec<f64>,
    /// Per query: the answer bytes of the last frame.
    last_answer: Vec<Vec<u8>>,
    /// Per query: the first pane not delivered.
    delivered_to: Vec<u64>,
    /// When the subscriber first saw each pane sealed (traced runs).
    sealed_seen: Vec<Instant>,
    dropped: bool,
    problems: Vec<String>,
    /// The subscriber's spans (answer decoding).
    tracer: Tracer,
}

/// Runs the dashboards workload.
pub fn dashboards(settings: &Settings, trace: bool) -> Outcome {
    let queries = scale_queries();
    let epochs = MIN_EPOCHS.max((settings.seconds / EPOCH_PERIOD.as_secs_f64()).ceil() as u64);
    let config = format!(
        "{{\"workload\": \"dashboards\", \"loop\": \"open\", \"source\": \"SyntheticCity cfo_keyed\", \
         \"poles\": {POLES}, \"generator_threads\": 1, \"epoch_period_ms\": {}, \"epochs\": {epochs}, \
         \"live_config\": \"default\", \"log\": \"LogOptions::default\", \"serve\": \"ServeConfig::default\", \
         \"subscribers\": 1, \"queries\": {}}}",
        EPOCH_PERIOD.as_millis(),
        queries.len()
    );

    let mut setup = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for index in 0..SETUPS {
        if let Some(old) = rig.take() {
            let (_, live, dir) = Rig::close(old);
            drop(live);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        match Rig::build(settings, index, &queries) {
            Ok(built) => rig = Some(built),
            Err(e) => return Outcome::failed(format!("dashboards set-up failed: {e}"), config),
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let live_config = *rig.live.config();
    let clock = PaneClock {
        epoch_us: rig.source.epoch_us(),
        pane_us: live_config.pane_us,
        lateness_panes: live_config.lateness_panes,
    };
    let n_poles = rig.source.directory().len() as u32;
    let origin = Instant::now() + Duration::from_millis(5);
    let due = |epoch: u64, pole: u32| {
        origin + EPOCH_PERIOD * epoch as u32 + EPOCH_PERIOD * pole / n_poles
    };

    let final_panes = AtomicU64::new(u64::MAX);
    let stream_done = AtomicBool::new(false);
    let mut tracer = Tracer::new(trace, origin, 1);
    let mut late_ms = Vec::with_capacity((epochs * n_poles as u64) as usize);
    let (mut observations, mut reports) = (0u64, 0u64);
    let mut stream_s = 0.0;
    let mut finish_ms = 0.0;

    let received = std::thread::scope(|scope| {
        let (live, client) = (&rig.live, &mut rig.client);
        let (final_panes, stream_done) = (&final_panes, &stream_done);
        let n_queries = queries.len();
        let subscriber = scope.spawn(move || {
            subscribe(
                client,
                live,
                n_queries,
                trace,
                final_panes,
                stream_done,
                clock,
                epochs,
                due,
            )
        });

        let source = &rig.source;
        for epoch in 0..epochs {
            let epoch_id = tracer.reserve();
            let epoch_start = tracer.start();
            for pole in 0..n_poles {
                let t = tracer.start();
                let report: PoleReport = source.report(pole, epoch as usize);
                tracer.end(Kind::Report, t, epoch_id);
                let at = due(epoch, pole);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                let sent = Instant::now();
                late_ms.push(sent.saturating_duration_since(at).as_secs_f64() * 1e3);
                let t = tracer.on().then_some(sent);
                live.ingest(&report);
                tracer.end(Kind::Ingest, t, epoch_id);
                observations += report.observations.len() as u64;
                reports += 1;
            }
            if let Some(start) = epoch_start {
                tracer.record_as(epoch_id, Kind::Epoch, start, Instant::now(), 0);
            }
        }
        stream_s = origin.elapsed().as_secs_f64();
        stream_done.store(true, Ordering::SeqCst);
        let t = Instant::now();
        live.finish();
        finish_ms = t.elapsed().as_secs_f64() * 1e3;
        final_panes.store(live.sealed_panes(), Ordering::SeqCst);
        subscriber.join().expect("subscriber thread panicked")
    });

    let mut problems = received.problems;
    let stats = rig.live.stats();
    let failed = stats.shed_observations + stats.overflow_shed;
    if stats.observations != observations || failed != 0 || stats.shed_reports != 0 {
        problems.push(format!(
            "sealed {} of {observations} observations generated (shed {}, overflow {}, shed reports {})",
            stats.observations, stats.shed_observations, stats.overflow_shed, stats.shed_reports
        ));
    }
    let sealed = rig.live.sealed_panes();
    let hub_stats = rig.hub.stats();
    if received.dropped || hub_stats.dropped_subscribers != 0 {
        problems.push("the subscriber was dropped".into());
    }
    for (q, &to) in received.delivered_to.iter().enumerate() {
        if to != sealed {
            problems.push(format!(
                "query {q}: panes delivered up to {to}, sealed {sealed}"
            ));
        }
    }
    let (_, answers) = rig.live.query_sealed(&queries);
    for (q, answer) in answers.iter().enumerate() {
        if received.last_answer.get(q) != Some(&encode_answer(answer)) {
            problems.push(format!(
                "query {q}: last frame differs from query_sealed after finish"
            ));
        }
    }
    if received.delivery_ms.iter().any(|&ms| ms < 0.0) {
        problems.push("a pane was delivered before the report releasing it was due".into());
    }
    let eval = eval_ms(&rig.live, &queries);
    let chain = rig.live.fingerprint_chain();
    let mut figures = received.figures;
    figures.catchup_frames = hub_stats.catchup_frames;
    figures.hub_frames = hub_stats.frames_delivered;

    let (source, live, log_dir) = Rig::close(rig);
    drop(live);
    let log = log_figures(
        &log_dir,
        source.directory(),
        live_config,
        chain,
        sealed,
        &mut problems,
    );
    let _ = std::fs::remove_dir_all(&log_dir);

    let mut stage = stages::StageTimes::default();
    if trace {
        let mut stage_tracer = Tracer::new(true, Instant::now(), 3);
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
    tracer.absorb(received.tracer);

    let delivery = chunked_tail(&received.delivery_ms, 1.0, 99.0);
    let late = chunked_tail(&late_ms, 1.0, 99.0);
    let seal_lag_ms: Vec<f64> = received
        .sealed_seen
        .iter()
        .enumerate()
        .filter(|&(pane, _)| timed(clock.release_epoch(pane as u64), epochs))
        .map(|(pane, at)| {
            let release = due(clock.release_epoch(pane as u64), n_poles - 1);
            at.saturating_duration_since(release).as_secs_f64() * 1e3
        })
        .collect();
    let seal_lag = chunked_tail(&seal_lag_ms, 1.0, 99.0);
    let report_ns = tracer.total_ns(Kind::Report) as f64;
    let mut per_layer = vec![
        ("city.gen_late_p99_ms", late.value),
        (
            "city.gen_ns_per_obs",
            report_ns / observations.max(1) as f64,
        ),
        (
            "city.report_ms",
            report_ns / tracer.calls(Kind::Report).max(1) as f64 / 1e6,
        ),
        ("city.phy_queries_per_report", 0.0),
        ("phy.synth_us", stage.synth_us),
        ("dsp.fft_us", stage.fft_us),
        ("core.analyze_us", stage.analyze_us),
        ("core.aoa_us", stage.aoa_us),
        ("geom.fix_us", stage.fix_us),
        (
            "live.ingest_ns_per_obs",
            tracer.total_ns(Kind::Ingest) as f64 / observations.max(1) as f64,
        ),
        ("live.seal_wait_frac", 0.0),
        ("live.finish_ms", finish_ms),
        ("live.seal_lag_p50_ms", seal_lag.p50),
        ("live.seal_lag_p99_ms", seal_lag.value),
        ("log.bytes_per_pane", log.bytes_per_pane),
        ("log.replay_s", log.replay_s),
        ("log.follow_ms", log.follow_ms),
        ("log.recover_s", log.recover_s),
        ("serve.eval_ms", eval),
    ];
    per_layer.extend(figures.metrics(&tracer));
    per_layer.push(("trace.spans", tracer.span_count() as f64));

    Outcome {
        problems,
        attempted: observations,
        failed,
        end_to_end: vec![
            ("obs_per_s", observations as f64 / stream_s),
            ("queries_per_s", reports as f64 / stream_s),
            ("delivery_p50_ms", delivery.p50),
            ("delivery_p99_ms", delivery.value),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        per_layer,
        notes: vec![
            format!("epochs {epochs} reports {reports} observations {observations} stream {stream_s:.3} s"),
            format!("delivery (release due to TCP receipt, per pane and query): {delivery}"),
            format!("gen_late (send vs schedule): {late}"),
            format!(
                "frames {} covering {} panes, hub catch-up {} of {}",
                figures.frames, figures.panes, figures.catchup_frames, figures.hub_frames
            ),
        ],
        config,
        tracer,
        headline: ("delivery_p50_ms", delivery.p50, false),
    }
}

/// The subscriber thread: reads frames until every query has delivered
/// every sealed pane, attributing each frame to the panes it covers.
#[allow(clippy::too_many_arguments)]
fn subscribe(
    client: &mut ServeClient,
    live: &LiveCity,
    n_queries: usize,
    trace: bool,
    final_panes: &AtomicU64,
    stream_done: &AtomicBool,
    clock: PaneClock,
    epochs: u64,
    due: impl Fn(u64, u32) -> Instant,
) -> Received {
    let mut got = Received {
        figures: ServeFigures::default(),
        delivery_ms: Vec::new(),
        last_answer: vec![Vec::new(); n_queries],
        delivered_to: Vec::new(),
        sealed_seen: Vec::new(),
        dropped: false,
        problems: Vec::new(),
        tracer: Tracer::new(trace, Instant::now(), 2),
    };
    let mut cursors = vec![PaneCursor::starting_at(0); n_queries];
    let last_pole = (POLES - 1) as u32;
    let mut drain_deadline = None;
    loop {
        match client.poll_frame(POLL_TIMEOUT) {
            Ok(ClientRead::Frame(
                Frame::Snapshot {
                    sub_id,
                    pane,
                    age_us,
                    answer,
                }
                | Frame::Delta {
                    sub_id,
                    pane,
                    age_us,
                    answer,
                },
            )) => {
                let at = Instant::now();
                let q = sub_id as usize;
                if q >= n_queries {
                    got.problems
                        .push(format!("frame for unknown subscription {sub_id}"));
                    continue;
                }
                if let Err(e) = got
                    .figures
                    .receive(&answer, age_us as f64 / 1e3, &mut got.tracer)
                {
                    got.problems.push(format!("frame does not decode: {e}"));
                }
                let delivered = cursors[q].deliver(pane);
                got.figures.panes += delivered.end - delivered.start;
                for p in delivered {
                    let release = clock.release_epoch(p);
                    if timed(release, epochs) {
                        let due_at = due(release, last_pole);
                        let ms = if at >= due_at {
                            (at - due_at).as_secs_f64() * 1e3
                        } else {
                            -(due_at - at).as_secs_f64() * 1e3
                        };
                        got.delivery_ms.push(ms);
                    }
                }
                got.last_answer[q] = answer;
            }
            Ok(ClientRead::Frame(Frame::Dropped { .. })) => {
                got.dropped = true;
                break;
            }
            Ok(ClientRead::Frame(_)) | Ok(ClientRead::Timeout) => {}
            Ok(ClientRead::Closed) => {
                got.problems.push("the server closed the connection".into());
                break;
            }
            Err(e) => {
                got.problems.push(format!("subscriber read failed: {e}"));
                break;
            }
        }
        if trace && !stream_done.load(Ordering::SeqCst) {
            let sealed = live.sealed_panes();
            while (got.sealed_seen.len() as u64) < sealed {
                got.sealed_seen.push(Instant::now());
            }
        }
        let target = final_panes.load(Ordering::SeqCst);
        if target != u64::MAX {
            if cursors.iter().all(|c| c.next() >= target) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
            if Instant::now() >= deadline {
                got.problems
                    .push("the subscriber did not drain in time".into());
                break;
            }
        }
    }
    got.delivered_to = cursors.iter().map(PaneCursor::next).collect();
    got
}
