//! The timing rules the workloads share: when a pane becomes releasable,
//! how a paced closed loop waits, and which panes a served frame delivers.

/// Event-time layout of a stream: one report per pole per epoch, panes of
/// `pane_us`, sealing `lateness_panes` behind the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaneClock {
    /// Event time between epochs, µs.
    pub epoch_us: u64,
    /// Pane width, µs.
    pub pane_us: u64,
    /// Panes the engine waits below the watermark before sealing.
    pub lateness_panes: u64,
}

impl PaneClock {
    /// The epoch whose delivery by every pole lets `pane` seal: the
    /// watermark must pass boundary `pane + 1 + lateness`, and a pole
    /// passes a boundary once it reports a timestamp at or above it.
    pub fn release_epoch(&self, pane: u64) -> u64 {
        ((pane + 1 + self.lateness_panes) * self.pane_us).div_ceil(self.epoch_us)
    }

    /// The pane holding epoch `epoch`'s reports.
    pub fn pane_of(&self, epoch: u64) -> u64 {
        epoch * self.epoch_us / self.pane_us
    }

    /// Panes sealable once every pole has delivered epochs `0..=epoch`
    /// (the seal horizon: panes below it may seal).
    pub fn sealable_after(&self, epoch: u64) -> u64 {
        self.pane_of(epoch).saturating_sub(self.lateness_panes)
    }

    /// The seal floor (µs) a closed-loop ingest thread waits for after
    /// sending `epoch`: the pane one below the newest its own epoch could
    /// release, so each thread paces on its own progress and stays at most
    /// a few panes ahead of the sealer. `None` while no such pane exists.
    pub fn pace_floor_us(&self, epoch: u64) -> Option<u64> {
        let horizon = self.sealable_after(epoch);
        (horizon >= 2).then(|| (horizon - 1) * self.pane_us)
    }
}

/// Attributes served frames to panes for one query stream: a frame for
/// pane `P` delivers every pane from the stream's next undelivered pane
/// through `P`, so a frame coalescing several seals delivers each of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaneCursor {
    next: u64,
}

impl PaneCursor {
    /// A stream whose first undelivered pane is `first`.
    pub fn starting_at(first: u64) -> Self {
        Self { next: first }
    }

    /// The first pane not yet delivered.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Records a frame for `pane`; returns the panes it newly delivers
    /// (empty for a frame at or below an already-delivered pane).
    pub fn deliver(&mut self, pane: u64) -> std::ops::Range<u64> {
        let first = self.next;
        self.next = self.next.max(pane + 1);
        first..self.next
    }
}
