//! # caraoke-log
//!
//! The durability tier: an append-only segment log of the sealed panes
//! the live engine produces, positioned between `caraoke-city` (whose
//! aggregate types it encodes) and `caraoke-live` (whose sealer thread
//! writes it):
//!
//! ```text
//!               caraoke-city                 aggregates, trackers
//!                    |
//!               caraoke-log   ← this crate   durable sealed-pane log:
//!                    |                       CRC framing, fingerprint-
//!               caraoke-live                 verified replay, recovery
//! ```
//!
//! The design leans on two properties the stack already guarantees:
//!
//! * **Sealed panes are deterministic bytes.** The live engine's
//!   determinism contract (byte-identical sealed panes for any worker
//!   count or arrival interleaving) means a pane is a value, not an
//!   event — so logging panes, not raw reports, makes replay trivially
//!   exact.
//! * **The fingerprint chain is already an integrity chain.** Each pane
//!   record stores its aggregate fingerprint and the chain state after
//!   absorbing it; [`LogReader`] recomputes both on every read, so a
//!   clean cursor pass doubles as an end-to-end corruption check, on top
//!   of the per-record CRC that catches media-level damage.
//!
//! The moving parts:
//!
//! * [`codec`] — the deterministic record encoding (pane, snapshot,
//!   dead-pole) and the CRC32 the framing uses.
//! * [`segment`] — [`SegmentWriter`]: size-rotated segment files, a
//!   manifest, configurable [`FsyncPolicy`], snapshots that open fresh
//!   segments so truncation can drop everything before them, and
//!   torn-tail repair on reopen.
//! * [`reader`] — [`LogReader`] / [`RecordCursor`]: verified iteration
//!   from any pane with typed [`LogError`]s distinguishing CRC damage,
//!   chain breaks, pane gaps, and torn tails.
//! * [`replay`] — [`LogCity`] (verified replay: a log replayed into
//!   [`CityAggregates`](caraoke_city::CityAggregates), fingerprint-equal
//!   to the writing engine and to the reference fold) and
//!   [`recover_state`] (everything a restarted `caraoke-live` engine
//!   needs to resume at the first unsealed pane).
//!
//! The `logtool` binary wraps the read side for operators:
//! `logtool inspect|verify|tail <log-dir>`.

// `deny` rather than the workspace's usual `forbid`: the hardware-CRC32C
// kernel in `codec` needs one `#[allow(unsafe_code)]` module for the
// SSE4.2 / ARMv8 checksum intrinsics (format version 2 framing). All other
// code in this crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod reader;
pub mod replay;
pub mod segment;

pub use codec::{LogRecord, PaneRecord, SnapshotRecord};
pub use reader::{LogError, LogReader, RecordCursor};
pub use replay::{recover_state, LogCity, LogReplay, RecoveredState};
pub use segment::{FsyncPolicy, IoOp, LogOptions, SegmentWriter, WriteFault};
