//! After-stream measurements shared by the workloads: dashboard-query
//! evaluation, the pane log (replay, follow, recover) and a served frame
//! over loopback TCP.

use crate::stats::{median, tail};
use crate::trace::{Kind, Tracer};
use caraoke_city::PoleDirectory;
use caraoke_live::{LiveAnswer, LiveCity, LiveConfig, LiveQuery};
use caraoke_log::{LogCity, LogOptions};
use caraoke_serve::{
    decode_answer, encode_answer, Frame, LogFollower, ServeClient, ServeConfig, ServeHub,
    ServeServer,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the short after-stream timings (each reports a median).
pub const REPEATS: usize = 7;

/// Median wall time of `query_sealed` over the dashboard queries, ms.
pub fn eval_ms(live: &LiveCity, queries: &[LiveQuery]) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(live.query_sealed(queries));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// What the pane log of a finished run costs to read back.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogFigures {
    /// Bytes on disk per sealed pane.
    pub bytes_per_pane: f64,
    /// `LogCity::replay` wall time, s.
    pub replay_s: f64,
    /// `LogFollower` open + advance to the durable head, ms.
    pub follow_ms: f64,
    /// Median `LiveCity::recover` wall time, s.
    pub recover_s: f64,
}

/// Replays, follows and recovers the log at `dir` (its writer must be
/// closed), checking each against the live engine's chain and horizon.
pub fn log_figures(
    dir: &Path,
    directory: &PoleDirectory,
    config: LiveConfig,
    chain: u64,
    sealed_panes: u64,
    problems: &mut Vec<String>,
) -> LogFigures {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);

    let t = Instant::now();
    let replay = LogCity::open(dir).replay();
    let replay_s = t.elapsed().as_secs_f64();
    match replay {
        Ok(r) if r.chain == chain && r.next_pane == sealed_panes => {}
        Ok(r) => problems.push(format!(
            "replay chain {:#x} at pane {} != live chain {chain:#x} at pane {sealed_panes}",
            r.chain, r.next_pane
        )),
        Err(e) => problems.push(format!("replay failed: {e}")),
    }

    let t = Instant::now();
    let followed = LogFollower::open(
        dir,
        config.retain_panes,
        config.pane_us,
        config.store.light_cycle_us,
    )
    .and_then(|mut f| f.advance_to_end().map(|()| f.next_pane()));
    let follow_ms = t.elapsed().as_secs_f64() * 1e3;
    match followed {
        Ok(next) if next == sealed_panes => {}
        Ok(next) => problems.push(format!(
            "follower stopped at pane {next}, not {sealed_panes}"
        )),
        Err(e) => problems.push(format!("follow failed: {e}")),
    }

    let mut recover = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        let recovered = LiveCity::recover(dir, directory.clone(), config, LogOptions::default());
        recover.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok(engine) if engine.fingerprint_chain() == chain => {}
            Ok(engine) => problems.push(format!(
                "recovered chain {:#x} != live chain {chain:#x}",
                engine.fingerprint_chain()
            )),
            Err(e) => {
                problems.push(format!("recover failed: {e}"));
                break;
            }
        }
    }

    LogFigures {
        bytes_per_pane: bytes as f64 / sealed_panes.max(1) as f64,
        replay_s,
        follow_ms,
        recover_s: median(&recover),
    }
}

/// Frames a TCP subscriber received, and what they cost it.
#[derive(Debug, Clone, Default)]
pub struct ServeFigures {
    /// Frame ages, ms: the server's `age_us` (seal to send) for frames
    /// of a running stream; subscribe to receipt for the after-stream
    /// probe, whose head frames were computed at subscription.
    pub ages_ms: Vec<f64>,
    /// Snapshot and delta frames received.
    pub frames: u64,
    /// Panes those frames delivered (see [`crate::rules::PaneCursor`]).
    pub panes: u64,
    /// Answer bytes received.
    pub answer_bytes: u64,
    /// Frames the hub rebuilt from the pane log / frames it delivered.
    pub catchup_frames: u64,
    /// Frames the hub delivered in all.
    pub hub_frames: u64,
}

impl ServeFigures {
    /// Counts one received frame of age `age_ms` and decodes its answer
    /// (a timed span).
    pub fn receive(
        &mut self,
        answer: &[u8],
        age_ms: f64,
        tracer: &mut Tracer,
    ) -> Result<LiveAnswer, String> {
        self.frames += 1;
        self.answer_bytes += answer.len() as u64;
        self.ages_ms.push(age_ms);
        tracer.time(Kind::Decode, 0, || decode_answer(answer))
    }

    /// The serve-layer metrics.
    pub fn metrics(&self, tracer: &Tracer) -> [(&'static str, f64); 6] {
        let ages = tail(&self.ages_ms, 99.0);
        let frames = self.frames.max(1) as f64;
        [
            ("serve.age_p50_ms", ages.p50),
            ("serve.age_p99_ms", ages.value),
            (
                "serve.catchup_frac",
                self.catchup_frames as f64 / self.hub_frames.max(1) as f64,
            ),
            ("serve.panes_per_frame", self.panes as f64 / frames),
            (
                "serve.decode_us",
                tracer.total_ns(Kind::Decode) as f64
                    / tracer.calls(Kind::Decode).max(1) as f64
                    / 1e3,
            ),
            ("serve.frame_bytes", self.answer_bytes as f64 / frames),
        ]
    }
}

/// Serves a finished engine over loopback TCP and takes one head frame per
/// dashboard query, checking each against `query_sealed`.
pub fn serve_probe(
    live: &Arc<LiveCity>,
    log_dir: &Path,
    queries: &[LiveQuery],
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> ServeFigures {
    let mut figures = ServeFigures::default();
    let hub = ServeHub::over_live(
        Arc::clone(live),
        Some(log_dir.to_path_buf()),
        ServeConfig::default(),
    );
    let (_, expected) = live.query_sealed(queries);
    let outcome = (|| -> std::io::Result<()> {
        let mut server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0")?;
        let mut client = ServeClient::connect(server.local_addr())?;
        let subscribed = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            client.subscribe(i as u32, q, false)?;
        }
        let mut got = vec![false; queries.len()];
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.iter().any(|g| !g) && Instant::now() < deadline {
            if let Some(
                Frame::Snapshot { sub_id, answer, .. } | Frame::Delta { sub_id, answer, .. },
            ) = client.next_frame(Duration::from_millis(100))?
            {
                let q = sub_id as usize;
                figures.panes += 1;
                let age_ms = subscribed.elapsed().as_secs_f64() * 1e3;
                if let Err(e) = figures.receive(&answer, age_ms, tracer) {
                    problems.push(format!("probe frame does not decode: {e}"));
                }
                if expected.get(q).map(encode_answer) != Some(answer) {
                    problems.push(format!(
                        "probe frame for query {q} differs from query_sealed"
                    ));
                }
                if let Some(g) = got.get_mut(q) {
                    *g = true;
                }
            }
        }
        if got.iter().any(|g| !g) {
            problems.push("serve probe: not every query delivered a frame".into());
        }
        drop(client);
        server.shutdown();
        Ok(())
    })();
    if let Err(e) = outcome {
        problems.push(format!("serve probe failed: {e}"));
    }
    let stats = hub.stats();
    figures.catchup_frames = stats.catchup_frames;
    figures.hub_frames = stats.frames_delivered;
    hub.shutdown();
    figures
}
