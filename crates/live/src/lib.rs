//! # caraoke-live
//!
//! The city engine: this crate applies [`PoleReport`]s *as they arrive*
//! and keeps the analytics continuously queryable — the event-time /
//! watermark discipline of streaming analytics systems, applied to the
//! paper's smart-city workloads (§7, §9, §11–12). It is the one engine
//! that computes city aggregates; `caraoke-city` supplies its building
//! blocks and a small reference fold the tests check it against.
//!
//! ```text
//!               caraoke-sim
//!                    |
//!              caraoke-city                  wire model, tracker, aggregates,
//!                    |                       frame sources, reference fold
//!              caraoke-log                   durable sealed-pane log:
//!                    |                       verified replay, recovery
//!              caraoke-live  ← this crate    online: watermarked ingest,
//!                                            windowed aggregates, query API
//! ```
//!
//! The moving parts:
//!
//! * [`watermark`] — per-pole **atomic** frontiers and the monotone
//!   event-time low watermark, advanced in pane-width steps with O(1)
//!   amortized cost and no lock on the hot path.
//! * [`window`] — window-keyed aggregate state: [`CityAggregates`]
//!   generalized into pane ring buffers
//!   ([`WindowRing`]), with tumbling/sliding [`WindowSpec`]s resolved to
//!   pane runs.
//! * [`engine`] — [`LiveCity`]: per-worker out-of-order buffering, a
//!   dedicated sealer thread doing deterministic pane sealing behind the
//!   watermark, shed counting for late arrivals, and a fingerprint chain
//!   over the sealed window sequence. With [`LiveCity::with_log`] every
//!   sealed pane is appended to a durable `caraoke-log` segment log
//!   *before* it becomes queryable, and [`LiveCity::recover`] rebuilds a
//!   crashed engine at its first unsealed pane;
//!   [`LiveCity::declare_pole_dead`] removes a stalled pole from the
//!   watermark quorum so event-time sealing resumes.
//! * [`query`] — [`LiveCity::query`] point-in-time answers (windowed
//!   occupancy, flow over the last K cycles, speed percentiles, top-N OD
//!   pairs, and the §6 position-accuracy product: per-method fix counts,
//!   localized fraction, mean position σ), plus [`LiveCity::snapshot`] and
//!   the [`LiveSubscription`] hook dashboards drive — pollable, or
//!   blocking on pane seals via [`LiveSubscription::wait_next`].
//! * [`driver`] — [`LiveDriver`]: streams any [`FrameSource`]
//!   (synthetic or full-PHY) online, under pole-striped multi-threaded or
//!   seeded shuffled-FIFO delivery.
//! * [`dashboard`] — text rendering of the rolling state.
//!
//! Determinism is the headline contract: for a fixed seed, any shard count,
//! any worker count, any seal pool and **any arrival interleaving
//! consistent with the watermarks** (FIFO per pole) yield a byte-identical
//! sealed-window sequence — pinned by comparing fingerprint chains — and
//! a chain and totals byte-identical to the single-threaded
//! [`caraoke_city::reference`] fold of the same reports.
//!
//! The ingest hot path and the drain → sort → fold → publish seal path
//! are described in [`engine`].
//!
//! [`PoleReport`]: caraoke_city::PoleReport
//! [`CityAggregates`]: caraoke_city::CityAggregates
//! [`FrameSource`]: caraoke_city::FrameSource
//! [`TagTracker`]: caraoke_city::store::TagTracker

// Deny (not forbid): the seal walk's prefetch hint in `engine` needs one
// `#[allow(unsafe_code)]` function for the `_mm_prefetch` intrinsic — a
// pure cache hint with no memory-safety surface. Everything else stays
// unsafe-free, and new unsafe blocks still fail the build.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod driver;
pub mod engine;
pub mod query;
pub mod watermark;
pub mod window;

pub use driver::{Interleaving, LiveDriver, LiveRun};
pub use engine::{IngestOutcome, LiveCity, LiveConfig, LiveStats, LogRetryPolicy};
pub use query::{
    answer_windowed, LiveAnswer, LiveQuery, LiveSnapshot, LiveSubscription, PaneSummary,
};
pub use watermark::WatermarkClock;
pub use window::{WindowAggregate, WindowRing, WindowSpec};
