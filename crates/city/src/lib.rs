//! # caraoke-city
//!
//! The smart-city layer of the Caraoke reproduction: ingestion and analytics
//! over the per-pole reader outputs, at the scale the paper's vision sketches
//! (hundreds to thousands of poles, §7, §9, §11–12).
//!
//! The workspace layers stack as:
//!
//! ```text
//!   caraoke-dsp  caraoke-geom  caraoke-phy      signal/geometry/PHY kernels
//!          \          |          /
//!            caraoke (core reader)              one pole's algorithms (§4–§8)
//!                     |
//!               caraoke-sim                     streets, vehicles, poles (§11)
//!                     |
//!               caraoke-city  ← this crate      wire model, tracker, aggregates,
//!                     |                         frame sources, reference fold
//!               caraoke-live                    the engine: watermarked ingest,
//!                                               sealed windowed aggregates, queries
//! ```
//!
//! This crate holds everything the engine computes *with*; the engine that
//! computes city aggregates is `caraoke-live`. The modules:
//!
//! * [`event`] — the wire model: [`TagObservation`]s (tag key, AoA fix, CFO
//!   bin, RSSI, timestamp, optional [`PositionEstimate`]) grouped into
//!   [`PoleReport`]s.
//! * [`position`] — the §6 `PositionSource` abstraction: method-tagged
//!   car-position estimates (two-reader conic fix → AoA-only → pole
//!   fallback) and the track regression the §7 speed estimator prefers.
//! * [`store`] — the pole directory, shard routing, the canonical
//!   observation order and the [`TagTracker`] state machine (re-sighting
//!   detection, ping-pong suppression, and the §8 decode-alias upgrade of
//!   CFO-signature keys) the engine runs once per tag shard.
//! * [`aggregate`] — integer-counter aggregators: per-street occupancy
//!   (Fig. 13), flow per traffic-light cycle (Fig. 12), speed percentiles
//!   from position tracks (§7), the origin–destination matrix from tag
//!   re-sightings, and per-method localization counters
//!   ([`PositionCounters`]).
//! * [`synth`] / [`phy`] — [`FrameSource`]s: a fast synthetic city for
//!   1k–10k-pole ingestion benchmarks, and the full sim → PHY →
//!   [`caraoke::CaraokeReader`] path for evaluation runs.
//! * [`reference`](mod@reference) — a small single-threaded reference fold: the oracle the
//!   engine's totals and window chain are tested against.
//!
//! Determinism is a first-class property: aggregates are integer-counter
//! CRDTs and per-tag histories are totally ordered per shard (observations
//! route by CFO bin, so a tag's CFO-signature key and the decoded key that
//! aliases it share a shard), so a fixed seed yields **byte-identical**
//! aggregates for any shard count, worker count, or delivery order.
//! `CityAggregates::fingerprint` pins this in the test suite, and
//! `caraoke-live` seals it into a fingerprint chain over its windows.

// `deny`, not `forbid`: the tracker's state table carries one documented
// `#[allow(unsafe_code)]` for the `_mm_prefetch` cache hint on its lookup
// path (see `store::TagStateMap::prefetch`) — a hint with no memory-safety
// surface. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod event;
pub mod phy;
pub mod position;
pub mod reference;
pub mod store;
pub mod synth;

pub use aggregate::{
    CityAggregates, FlowCounter, OdMatrix, PositionCounters, SegmentStats, SpeedHistogram,
};
pub use event::{PoleId, PoleReport, SegmentId, TagKey, TagObservation};
pub use phy::PhyCity;
pub use position::{PolePositionSource, PositionEstimate, PositionMethod, PositionSource};
pub use store::{
    AliasStats, DerivedEvent, PoleDirectory, PoleSite, SpeedSource, StoreConfig, TagRecord,
    TagTracker, TrackerDelta,
};
pub use synth::{FrameSource, SyntheticCity};
