//! Spans around the benchmark's calls into each layer.
//!
//! Each harness thread owns a [`Tracer`]. A timed call records a span
//! (name, start, end, parent) in memory and adds its duration to a
//! per-name total; the totals feed the per-layer metrics, and the spans are
//! written out when the run ends. An untraced run uses a disabled tracer,
//! which records nothing and reads no clock.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// One epoch of one ingest thread (parent of its reports).
    Epoch,
    /// `FrameSource::report` (city).
    Report,
    /// `LiveCity::ingest` (live).
    Ingest,
    /// `LiveCity::wait_seal_floor` (live backpressure).
    SealWait,
    /// `Pole::receive` (sim/phy).
    Synth,
    /// `caraoke_dsp::fft` over every antenna (dsp).
    Fft,
    /// `analyze_collision` (core).
    Analyze,
    /// `localize_peaks` (core).
    Aoa,
    /// `try_localize_two_readers` (geom).
    Fix,
    /// `decode_answer` (serve wire).
    Decode,
}

/// Every kind, in `repr` order.
pub const KINDS: [Kind; 10] = [
    Kind::Epoch,
    Kind::Report,
    Kind::Ingest,
    Kind::SealWait,
    Kind::Synth,
    Kind::Fft,
    Kind::Analyze,
    Kind::Aoa,
    Kind::Fix,
    Kind::Decode,
];

impl Kind {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Epoch => "city.epoch",
            Kind::Report => "city.report",
            Kind::Ingest => "live.ingest",
            Kind::SealWait => "live.wait_seal_floor",
            Kind::Synth => "phy.receive",
            Kind::Fft => "dsp.fft",
            Kind::Analyze => "core.analyze_collision",
            Kind::Aoa => "core.localize_peaks",
            Kind::Fix => "geom.try_localize_two_readers",
            Kind::Decode => "serve.decode_answer",
        }
    }
}

/// One recorded span. Ids are unique across a run's tracers; `parent` 0
/// means a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// Boundary timed.
    pub kind: Kind,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

/// Spans kept per tracer; later spans still count toward the totals.
const SPAN_CAP: usize = 1 << 18;

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    id_base: u64,
    next_id: u64,
    spans: Vec<Span>,
    unstored: u64,
    total_ns: [u64; KINDS.len()],
    calls: [u64; KINDS.len()],
}

impl Tracer {
    /// A tracer for harness thread `thread` (ids are namespaced by it);
    /// records nothing unless `on`.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Self {
            on,
            origin,
            id_base: thread << 40,
            next_id: 0,
            spans: Vec::new(),
            unstored: 0,
            total_ns: [0; KINDS.len()],
            calls: [0; KINDS.len()],
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start of a span: the clock when tracing, else `None`.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened with [`start`](Self::start).
    pub fn end(&mut self, kind: Kind, start: Option<Instant>, parent: u64) {
        if let Some(start) = start {
            self.record(kind, start, Instant::now(), parent);
        }
    }

    /// Reserves the id of a span whose children are recorded before it
    /// closes (0 when tracing is off).
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next_id += 1;
        self.id_base | self.next_id
    }

    /// Records a span with explicit bounds.
    pub fn record(&mut self, kind: Kind, start: Instant, end: Instant, parent: u64) {
        let id = self.reserve();
        self.record_as(id, kind, start, end, parent);
    }

    /// Records a span under an id from [`reserve`](Self::reserve).
    pub fn record_as(&mut self, id: u64, kind: Kind, start: Instant, end: Instant, parent: u64) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.total_ns[kind as usize] += end_ns.saturating_sub(start_ns);
        self.calls[kind as usize] += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                kind,
                start_ns,
                end_ns,
            });
        } else {
            self.unstored += 1;
        }
    }

    /// Times `f` as a span of `kind` under `parent`.
    pub fn time<R>(&mut self, kind: Kind, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = self.start();
        let out = f();
        self.end(kind, start, parent);
        out
    }

    /// Total traced ns in spans of `kind`.
    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize]
    }

    /// Spans of `kind` recorded.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Spans recorded, stored or not.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.unstored
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for k in 0..KINDS.len() {
            self.total_ns[k] += other.total_ns[k];
            self.calls[k] += other.calls[k];
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.unstored += other.unstored + (other.spans.len() - keep) as u64;
        self.spans.extend_from_slice(&other.spans[..keep]);
    }

    /// Writes the stored spans as tab-separated
    /// `id parent name start_ns end_ns` lines, ordered by start.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# spans recorded {}, not stored {}",
            self.span_count(),
            self.unstored
        )?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
