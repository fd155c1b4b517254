//! # caraoke-serve
//!
//! The **serving tier**: many concurrent dashboards over one live city.
//!
//! ```text
//!               caraoke-sim
//!                    |
//!              caraoke-city                  wire model, tracker, aggregates,
//!                    |                       frame sources, reference fold
//!              caraoke-log                   durable sealed-pane log:
//!                    |                       verified replay, recovery
//!              caraoke-live                  online: watermarked ingest,
//!                    |                       windowed aggregates, query API
//!              caraoke-serve ← this crate    serving: per-subscriber
//!                                            cursors, once-per-seal cache,
//!                                            wire protocol over TCP
//! ```
//!
//! A [`LiveCity`](caraoke_live::LiveCity) answers one query at a time; a
//! deployed city (the paper's §7/§9 vision — occupancy maps, flow counts,
//! speed products consumed across a municipality) has *thousands* of
//! concurrent consumers asking a much smaller set of *distinct* questions.
//! This crate turns that shape into the architecture:
//!
//! * [`hub`] — [`ServeHub`]: each distinct query (keyed by its canonical
//!   wire encoding) is computed **once per pane seal** under a single
//!   acquisition of the sealed state, and the resulting immutable
//!   [`PaneFrame`] fans out to every subscriber by `Arc` clone.
//!   Subscribers hold **cursors**: near the head they read cached frames
//!   (cache hits); fallen past retention they rebuild answers from the
//!   durable pane log ([`eval::LogFollower`]) without ever touching the
//!   live engine — a slow dashboard cannot block the sealer. Laggards get
//!   a [`ServeEvent::LagNotice`] and, past a configurable cursor-lag
//!   bound, are dropped. [`ServeStats`] counts all of it.
//! * [`eval`] — query evaluation over the verified pane log, through the
//!   same [`answer_windowed`](caraoke_live::answer_windowed) code path the
//!   live engine uses, so reconstructed answers encode byte-identically.
//! * [`wire`] — the versioned length-prefixed binary protocol: canonical
//!   query encodings double as cache keys; answers are encoded once per
//!   seal and the same bytes go to every TCP subscriber.
//! * [`tcp`] — [`ServeServer`]/[`ServeClient`] with application-level ack
//!   flow control, so a stalled remote subscriber hits the *hub's* lag
//!   policy deterministically instead of hiding in kernel socket buffers.
//!
//! The `servetool` binary subscribes, tails, and pretty-prints — against a
//! live server or straight out of a pane-log directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod hub;
pub mod tcp;
pub mod wire;

pub use eval::LogFollower;
pub use hub::{FrameKind, PaneFrame, ServeConfig, ServeEvent, ServeHub, ServeStats, Subscription};
pub use tcp::{Backoff, ClientRead, ReconnectingClient, ServeClient, ServeServer};
pub use wire::{
    decode_answer, decode_frame, decode_query, encode_answer, encode_frame, encode_query,
    read_frame, write_frame, Frame, WIRE_VERSION,
};
