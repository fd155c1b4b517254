//! Percentiles as the benchmark reports them.

/// A latency summary: the median and the highest percentile (up to the
/// one asked for) that still has at least [`TAIL_BEYOND`] samples beyond
/// it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile actually reported.
    pub percentile: f64,
    /// Value at [`percentile`](Self::percentile) (nearest rank).
    pub value: f64,
    /// Samples the summary rests on.
    pub samples: usize,
    /// Chunks the run was split into (see [`chunked_tail`]).
    pub chunks: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.3} ms, p{:.2} {:.3} ms over {} samples in {} chunk(s)",
            self.p50, self.percentile, self.value, self.samples, self.chunks
        )
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending); `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Summarises `values` with the median and the tail percentile `wanted`,
/// lowered until at least [`TAIL_BEYOND`] samples lie beyond it (never
/// below the median).
pub fn tail(values: &[f64], wanted: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p = tail_percentile(n, wanted);
    Tail {
        p50: percentile(&sorted, 50.0),
        percentile: p,
        value: percentile(&sorted, p),
        samples: n,
        chunks: 1,
    }
}

/// Most chunks [`chunked_tail`] splits a run into.
pub const MAX_CHUNKS: usize = 64;

/// [`tail`] computed separately over up to [`MAX_CHUNKS`] consecutive
/// chunks of time-ordered `values` (each scaled by `scale`), reporting the
/// median across chunks of each chunk's median and tail percentile. Every
/// chunk is large enough for `wanted` to keep [`TAIL_BEYOND`] samples
/// beyond it, so one stall moves one chunk's tail, not the figure. With too
/// few samples for two chunks this is [`tail`] over the whole run.
pub fn chunked_tail<T: Copy + Into<f64>>(values: &[T], scale: f64, wanted: f64) -> Tail {
    let n = values.len();
    let per_chunk = (TAIL_BEYOND as f64 / (1.0 - wanted / 100.0)).ceil() as usize;
    let chunks = (n / per_chunk.max(1)).clamp(1, MAX_CHUNKS);
    let tails: Vec<Tail> = (0..chunks)
        .map(|c| {
            let part: Vec<f64> = values[c * n / chunks..(c + 1) * n / chunks]
                .iter()
                .map(|&v| v.into() * scale)
                .collect();
            tail(&part, wanted)
        })
        .collect();
    Tail {
        p50: median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>()),
        percentile: tails.iter().map(|t| t.percentile).fold(wanted, f64::min),
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        samples: n,
        chunks,
    }
}

/// The highest percentile up to `wanted` with [`TAIL_BEYOND`] of `n`
/// samples beyond it, never below the median.
fn tail_percentile(n: usize, wanted: f64) -> f64 {
    let reachable = if n > TAIL_BEYOND {
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64
    } else {
        0.0
    };
    wanted.min(reachable).max(50.0)
}
