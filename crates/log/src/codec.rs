//! The deterministic binary encoding of log records.
//!
//! Every record is a type-tagged payload; the segment layer frames it as
//! `[len u32 LE][crc u32 LE][payload]`. All integers are little-endian,
//! all maps are emitted in their `BTreeMap` (= sorted) order and all
//! tracker deltas come pre-sorted from
//! [`TagTracker::take_delta`](caraoke_city::store::TagTracker::take_delta),
//! so encoding the same logical state always produces the same bytes —
//! the property the fingerprint-verified replay rests on.

use caraoke_city::store::{TagRecord, TrackerDelta, TRACK_CAP};
use caraoke_city::{AliasStats, CityAggregates, SegmentStats, SpeedHistogram};

/// Record type tag: one sealed pane.
pub const REC_PANE: u8 = 1;
/// Record type tag: a cumulative snapshot (truncation point).
pub const REC_SNAPSHOT: u8 = 2;
/// Record type tag: a pole declared dead (removed from the seal quorum).
pub const REC_DEAD_POLE: u8 = 3;

/// One sealed pane as it appears in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct PaneRecord {
    /// Pane index (event time = `pane * pane_us`).
    pub pane: u64,
    /// Whether this pane was force-sealed (staleness timeout) rather than
    /// released by the event-time watermark.
    pub forced: bool,
    /// Poles whose frontier had not reached the pane boundary when a
    /// forced seal fired (0 for watermark-released panes).
    pub pole_misses: u32,
    /// The pane aggregate's own fingerprint.
    pub fingerprint: u64,
    /// The engine's chain state *after* absorbing this pane.
    pub chain: u64,
    /// The pane's aggregate delta (this pane only, not cumulative).
    pub aggregates: CityAggregates,
    /// Per-shard tracker mutations applied while sealing this pane.
    pub deltas: Vec<TrackerDelta>,
}

/// A cumulative snapshot: everything needed to resume without the
/// preceding segments.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// First pane *not* covered by this snapshot.
    pub next_pane: u64,
    /// Chain state after the last covered pane.
    pub chain: u64,
    /// Cumulative forced-seal pane count.
    pub forced_panes: u64,
    /// Cumulative forced-seal pole misses.
    pub forced_pole_misses: u64,
    /// Poles declared dead so far, ascending.
    pub dead_poles: Vec<u32>,
    /// Cumulative aggregates over panes `0..next_pane`.
    pub total: CityAggregates,
    /// Full per-shard tracker exports.
    pub trackers: Vec<TrackerDelta>,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// One sealed pane.
    Pane(PaneRecord),
    /// A cumulative snapshot.
    Snapshot(SnapshotRecord),
    /// A pole declared dead.
    DeadPole(u32),
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — the ubiquitous 0xEDB88320 polynomial, table
// built at compile time so the hot path is one lookup per byte.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `data` — the format-version-1 frame checksum. Kept so
/// v1 segments written before the CRC32C switch still verify.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli, reflected 0x82F63B78) — the format-version-2 frame
// checksum. Hardware path via the SSE4.2 / ARMv8 CRC instructions when the
// CPU has them (detected once at runtime); software fallback is slice-by-8
// (8 bytes per iteration through eight compile-time tables) rather than
// the bit-by-bit or byte-by-byte loops — the log appends on the sealer's
// critical path, so checksum cost is seal latency.

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Software slice-by-8 CRC32C over `data`, continuing from pre-inverted
/// state `c`.
fn crc32c_sw(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = CRC32C_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32C_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[4][(lo >> 24) as usize]
            ^ CRC32C_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32C_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32C_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The one unsafe module in the crate: hardware CRC32C kernels. Safety
/// rests on runtime feature detection — each function is only reachable
/// after `is_*_feature_detected!` confirmed the instruction exists.
#[allow(unsafe_code)]
mod crc32c_hw {
    /// SSE4.2 `crc32` instruction, 8 bytes per step.
    ///
    /// # Safety
    /// Caller must have verified `sse4.2` is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn crc32c(mut c: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let mut chunks = data.chunks_exact(8);
        let mut c64 = c as u64;
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            c64 = _mm_crc32_u64(c64, v);
        }
        c = c64 as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }

    /// ARMv8 CRC extension, 8 bytes per step.
    ///
    /// # Safety
    /// Caller must have verified the `crc` feature is available.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "crc")]
    pub unsafe fn crc32c(mut c: u32, data: &[u8]) -> u32 {
        use std::arch::aarch64::{__crc32cb, __crc32cd};
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            c = __crc32cd(c, v);
        }
        for &b in chunks.remainder() {
            c = __crc32cb(c, b);
        }
        c
    }
}

/// Is the hardware CRC32C kernel usable on this CPU? Detected once.
fn crc32c_hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("crc")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// CRC32C (Castagnoli) of `data` — the format-version-2 frame checksum.
/// Uses the CPU's CRC instructions when present, slice-by-8 otherwise;
/// both produce identical values.
pub fn crc32c(data: &[u8]) -> u32 {
    let c = 0xFFFF_FFFFu32;
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crc32c_hw_available() {
        // Safety: the required instruction set was just detected.
        #[allow(unsafe_code)]
        return unsafe { crc32c_hw::crc32c(c, data) } ^ 0xFFFF_FFFF;
    }
    crc32c_sw(c, data) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive writers / the bounds-checked decoder.

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Bounds-checked little-endian reader over a record payload.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated reading {what} at offset {}",
                self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &'static str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A preallocation size for `count` items of at least `min_bytes`
    /// encoded bytes each, capped by what the bytes left could hold — so a
    /// hostile length prefix can never force a huge allocation.
    fn capacity(&self, count: u32, min_bytes: usize) -> usize {
        (count as usize).min((self.buf.len() - self.pos) / min_bytes)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Aggregates.

fn encode_aggregates(buf: &mut Vec<u8>, agg: &CityAggregates) {
    put_u64(buf, agg.observations);
    put_u32(buf, agg.segments.len() as u32);
    for (&seg, s) in &agg.segments {
        put_u16(buf, seg);
        put_u64(buf, s.reports);
        put_u64(buf, s.observations);
        put_u64(buf, s.sum_count);
        put_u32(buf, s.peak_count);
        put_u64(buf, s.multi_occupied_peaks);
    }
    put_u32(buf, agg.flow.per_cycle.len() as u32);
    for (&(seg, cycle), &n) in &agg.flow.per_cycle {
        put_u16(buf, seg);
        put_u32(buf, cycle);
        put_u64(buf, n);
    }
    put_u64(buf, agg.speeds.samples());
    put_u64(buf, agg.speeds.sum_centi_mph());
    let nonzero: Vec<(usize, u64)> = agg
        .speeds
        .bins()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n != 0)
        .map(|(i, &n)| (i, n))
        .collect();
    put_u32(buf, nonzero.len() as u32);
    for (bin, n) in nonzero {
        put_u16(buf, bin as u16);
        put_u64(buf, n);
    }
    put_u32(buf, agg.od.transitions.len() as u32);
    for (&(from, to), &n) in &agg.od.transitions {
        put_u32(buf, from);
        put_u32(buf, to);
        put_u64(buf, n);
    }
    put_u64(buf, agg.positions.two_reader_fixes);
    put_u64(buf, agg.positions.aoa_only_fixes);
    put_u64(buf, agg.positions.pole_fallbacks);
    put_u64(buf, agg.positions.track_speed_samples);
    put_u64(buf, agg.positions.arrival_speed_samples);
    put_u64(buf, agg.positions.sum_sigma_cm);
}

fn decode_aggregates(dec: &mut Dec<'_>) -> Result<CityAggregates, String> {
    let mut agg = CityAggregates::new();
    agg.observations = dec.u64("observations")?;
    let n_segments = dec.u32("segment count")?;
    for _ in 0..n_segments {
        let seg = dec.u16("segment id")?;
        let stats = SegmentStats {
            reports: dec.u64("segment reports")?,
            observations: dec.u64("segment observations")?,
            sum_count: dec.u64("segment sum_count")?,
            peak_count: dec.u32("segment peak_count")?,
            multi_occupied_peaks: dec.u64("segment multi_occupied")?,
        };
        agg.segments.insert(seg, stats);
    }
    let n_flow = dec.u32("flow count")?;
    for _ in 0..n_flow {
        let seg = dec.u16("flow segment")?;
        let cycle = dec.u32("flow cycle")?;
        let n = dec.u64("flow events")?;
        agg.flow.per_cycle.insert((seg, cycle), n);
    }
    let samples = dec.u64("speed samples")?;
    let sum_centi = dec.u64("speed sum")?;
    let n_bins = dec.u32("speed bin count")?;
    let mut bins = Vec::new();
    for _ in 0..n_bins {
        let bin = dec.u16("speed bin")? as usize;
        let n = dec.u64("speed bin count value")?;
        if bins.len() <= bin {
            bins.resize(bin + 1, 0);
        }
        bins[bin] = n;
    }
    agg.speeds = SpeedHistogram::from_parts(bins, samples, sum_centi);
    let n_od = dec.u32("od count")?;
    for _ in 0..n_od {
        let from = dec.u32("od from")?;
        let to = dec.u32("od to")?;
        let n = dec.u64("od transitions")?;
        agg.od.transitions.insert((from, to), n);
    }
    agg.positions.two_reader_fixes = dec.u64("two_reader_fixes")?;
    agg.positions.aoa_only_fixes = dec.u64("aoa_only_fixes")?;
    agg.positions.pole_fallbacks = dec.u64("pole_fallbacks")?;
    agg.positions.track_speed_samples = dec.u64("track_speed_samples")?;
    agg.positions.arrival_speed_samples = dec.u64("arrival_speed_samples")?;
    agg.positions.sum_sigma_cm = dec.u64("sum_sigma_cm")?;
    Ok(agg)
}

// ---------------------------------------------------------------------------
// Tracker deltas.

fn encode_tag_record(buf: &mut Vec<u8>, rec: &TagRecord) {
    put_u64(buf, rec.key);
    put_u32(buf, rec.prev_pole);
    put_u32(buf, rec.last_pole);
    put_u16(buf, rec.prev_segment);
    put_u16(buf, rec.last_segment);
    put_u64(buf, rec.arrival_us);
    put_u64(buf, rec.last_seen_us);
    put_u32(buf, rec.last_cycle);
    put_u64(buf, rec.sightings);
    put_u8(buf, rec.track_len);
    for &(t, x, y) in rec.track.iter().take(rec.track_len as usize) {
        put_u64(buf, t);
        put_f64(buf, x);
        put_f64(buf, y);
    }
}

fn decode_tag_record(dec: &mut Dec<'_>) -> Result<TagRecord, String> {
    let key = dec.u64("tag key")?;
    let prev_pole = dec.u32("tag prev_pole")?;
    let last_pole = dec.u32("tag last_pole")?;
    let prev_segment = dec.u16("tag prev_segment")?;
    let last_segment = dec.u16("tag last_segment")?;
    let arrival_us = dec.u64("tag arrival_us")?;
    let last_seen_us = dec.u64("tag last_seen_us")?;
    let last_cycle = dec.u32("tag last_cycle")?;
    let sightings = dec.u64("tag sightings")?;
    let track_len = dec.u8("tag track_len")?;
    if track_len as usize > TRACK_CAP {
        return Err(format!("track_len {track_len} exceeds cap {TRACK_CAP}"));
    }
    let mut track = [(0u64, 0.0f64, 0.0f64); TRACK_CAP];
    for slot in track.iter_mut().take(track_len as usize) {
        *slot = (
            dec.u64("track timestamp")?,
            dec.f64("track x")?,
            dec.f64("track y")?,
        );
    }
    Ok(TagRecord {
        key,
        prev_pole,
        last_pole,
        prev_segment,
        last_segment,
        arrival_us,
        last_seen_us,
        last_cycle,
        sightings,
        track,
        track_len,
    })
}

fn encode_delta(buf: &mut Vec<u8>, delta: &TrackerDelta) {
    put_u32(buf, delta.upserts.len() as u32);
    for rec in &delta.upserts {
        encode_tag_record(buf, rec);
    }
    put_u32(buf, delta.removals.len() as u32);
    for &key in &delta.removals {
        put_u64(buf, key);
    }
    put_u32(buf, delta.aliases.len() as u32);
    for &(raw, decoded) in &delta.aliases {
        put_u64(buf, raw);
        put_u64(buf, decoded);
    }
    put_u64(buf, delta.stats.decode_upgrades);
    put_u64(buf, delta.stats.alias_hits);
    put_u64(buf, delta.stats.alias_collisions);
}

/// Smallest encoded [`TrackerDelta`]: three empty list counts plus the
/// three alias counters.
const MIN_DELTA_BYTES: usize = 3 * 4 + 3 * 8;

fn decode_delta(dec: &mut Dec<'_>) -> Result<TrackerDelta, String> {
    let mut delta = TrackerDelta::default();
    let n_upserts = dec.u32("upsert count")?;
    for _ in 0..n_upserts {
        delta.upserts.push(decode_tag_record(dec)?);
    }
    let n_removals = dec.u32("removal count")?;
    for _ in 0..n_removals {
        delta.removals.push(dec.u64("removal key")?);
    }
    let n_aliases = dec.u32("alias count")?;
    for _ in 0..n_aliases {
        let raw = dec.u64("alias raw")?;
        let decoded = dec.u64("alias decoded")?;
        delta.aliases.push((raw, decoded));
    }
    delta.stats = AliasStats {
        decode_upgrades: dec.u64("decode_upgrades")?,
        alias_hits: dec.u64("alias_hits")?,
        alias_collisions: dec.u64("alias_collisions")?,
    };
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Records.

/// Encodes a pane record from parts (so the sealer never clones the pane
/// aggregate just to log it).
#[allow(clippy::too_many_arguments)]
pub fn encode_pane(
    pane: u64,
    forced: bool,
    pole_misses: u32,
    fingerprint: u64,
    chain: u64,
    aggregates: &CityAggregates,
    deltas: &[TrackerDelta],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u8(&mut buf, REC_PANE);
    put_u64(&mut buf, pane);
    put_u8(&mut buf, u8::from(forced));
    put_u32(&mut buf, pole_misses);
    put_u64(&mut buf, fingerprint);
    put_u64(&mut buf, chain);
    encode_aggregates(&mut buf, aggregates);
    put_u32(&mut buf, deltas.len() as u32);
    for delta in deltas {
        encode_delta(&mut buf, delta);
    }
    buf
}

/// Encodes a snapshot record.
pub fn encode_snapshot(snap: &SnapshotRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u8(&mut buf, REC_SNAPSHOT);
    put_u64(&mut buf, snap.next_pane);
    put_u64(&mut buf, snap.chain);
    put_u64(&mut buf, snap.forced_panes);
    put_u64(&mut buf, snap.forced_pole_misses);
    put_u32(&mut buf, snap.dead_poles.len() as u32);
    for &pole in &snap.dead_poles {
        put_u32(&mut buf, pole);
    }
    encode_aggregates(&mut buf, &snap.total);
    put_u32(&mut buf, snap.trackers.len() as u32);
    for delta in &snap.trackers {
        encode_delta(&mut buf, delta);
    }
    buf
}

/// Encodes a dead-pole record.
pub fn encode_dead_pole(pole: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8);
    put_u8(&mut buf, REC_DEAD_POLE);
    put_u32(&mut buf, pole);
    buf
}

/// Decodes one framed payload into a [`LogRecord`]. The error string says
/// what field was being read when decoding fell off the end.
pub fn decode_record(payload: &[u8]) -> Result<LogRecord, String> {
    let mut dec = Dec::new(payload);
    let record = match dec.u8("record type")? {
        REC_PANE => {
            let pane = dec.u64("pane id")?;
            let forced = dec.u8("pane flags")? != 0;
            let pole_misses = dec.u32("pane pole_misses")?;
            let fingerprint = dec.u64("pane fingerprint")?;
            let chain = dec.u64("pane chain")?;
            let aggregates = decode_aggregates(&mut dec)?;
            let n_shards = dec.u32("pane shard count")?;
            let mut deltas = Vec::with_capacity(dec.capacity(n_shards, MIN_DELTA_BYTES));
            for _ in 0..n_shards {
                deltas.push(decode_delta(&mut dec)?);
            }
            LogRecord::Pane(PaneRecord {
                pane,
                forced,
                pole_misses,
                fingerprint,
                chain,
                aggregates,
                deltas,
            })
        }
        REC_SNAPSHOT => {
            let next_pane = dec.u64("snapshot next_pane")?;
            let chain = dec.u64("snapshot chain")?;
            let forced_panes = dec.u64("snapshot forced_panes")?;
            let forced_pole_misses = dec.u64("snapshot forced_pole_misses")?;
            let n_dead = dec.u32("snapshot dead count")?;
            let mut dead_poles = Vec::with_capacity(dec.capacity(n_dead, 4));
            for _ in 0..n_dead {
                dead_poles.push(dec.u32("snapshot dead pole")?);
            }
            let total = decode_aggregates(&mut dec)?;
            let n_shards = dec.u32("snapshot shard count")?;
            let mut trackers = Vec::with_capacity(dec.capacity(n_shards, MIN_DELTA_BYTES));
            for _ in 0..n_shards {
                trackers.push(decode_delta(&mut dec)?);
            }
            LogRecord::Snapshot(SnapshotRecord {
                next_pane,
                chain,
                forced_panes,
                forced_pole_misses,
                dead_poles,
                total,
                trackers,
            })
        }
        REC_DEAD_POLE => LogRecord::DeadPole(dec.u32("dead pole id")?),
        other => return Err(format!("unknown record type {other}")),
    };
    dec.done()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleId, SegmentId};

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // The check value for CRC-32C/Castagnoli (RFC 3720 appendix B).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 bytes of zeros, another RFC 3720 test vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_software_and_dispatch_agree_at_every_alignment() {
        // Lengths straddling the 8-byte slicing boundary, so both the
        // chunked body and the remainder tail are exercised; the public
        // `crc32c` may take the hardware path, the explicit `crc32c_sw`
        // never does.
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131)) as u8).collect();
        for len in 0..data.len() {
            let sw = crc32c_sw(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(sw, crc32c(&data[..len]), "length {len}");
        }
    }

    fn sample_aggregates() -> CityAggregates {
        let mut agg = CityAggregates::new();
        agg.observations = 7;
        agg.segments.insert(
            2,
            SegmentStats {
                reports: 3,
                observations: 7,
                sum_count: 9,
                peak_count: 4,
                multi_occupied_peaks: 1,
            },
        );
        agg.flow.record(SegmentId(2), 5);
        agg.speeds.record(23.4);
        agg.speeds.record(31.0);
        agg.od.record(PoleId(1), PoleId(2));
        agg.positions.sum_sigma_cm = 1200;
        agg.positions.two_reader_fixes = 4;
        agg
    }

    #[test]
    fn pane_record_round_trips() {
        let agg = sample_aggregates();
        let delta = TrackerDelta {
            upserts: vec![TagRecord {
                key: 99,
                prev_pole: u32::MAX,
                last_pole: 1,
                prev_segment: u16::MAX,
                last_segment: 2,
                arrival_us: 10,
                last_seen_us: 20,
                last_cycle: 0,
                sightings: 2,
                track: {
                    let mut t = [(0, 0.0, 0.0); TRACK_CAP];
                    t[0] = (10, 1.5, -2.5);
                    t
                },
                track_len: 1,
            }],
            removals: vec![7],
            aliases: vec![(7, 99)],
            stats: AliasStats {
                decode_upgrades: 1,
                alias_hits: 3,
                alias_collisions: 0,
            },
        };
        let payload = encode_pane(
            42,
            true,
            3,
            agg.fingerprint(),
            0xDEAD,
            &agg,
            std::slice::from_ref(&delta),
        );
        match decode_record(&payload).expect("decode") {
            LogRecord::Pane(p) => {
                assert_eq!(p.pane, 42);
                assert!(p.forced);
                assert_eq!(p.pole_misses, 3);
                assert_eq!(p.chain, 0xDEAD);
                assert_eq!(p.fingerprint, agg.fingerprint());
                assert_eq!(p.aggregates, agg);
                assert_eq!(p.aggregates.fingerprint(), agg.fingerprint());
                assert_eq!(p.deltas, vec![delta]);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn snapshot_and_dead_pole_round_trip() {
        let snap = SnapshotRecord {
            next_pane: 17,
            chain: 0xBEEF,
            forced_panes: 2,
            forced_pole_misses: 5,
            dead_poles: vec![3, 9],
            total: sample_aggregates(),
            trackers: vec![TrackerDelta::default(), TrackerDelta::default()],
        };
        let payload = encode_snapshot(&snap);
        assert_eq!(
            decode_record(&payload).expect("decode"),
            LogRecord::Snapshot(snap)
        );
        assert_eq!(
            decode_record(&encode_dead_pole(12)).expect("decode"),
            LogRecord::DeadPole(12)
        );
    }

    #[test]
    fn hostile_length_prefixes_fail_without_preallocating() {
        // A snapshot header claiming u32::MAX dead poles, then nothing: the
        // decoder must run out of bytes and say so, not reserve 16 GiB.
        let mut snapshot = vec![REC_SNAPSHOT];
        for field in [17u64, 0xfeed, 0, 0] {
            put_u64(&mut snapshot, field);
        }
        put_u32(&mut snapshot, u32::MAX);
        assert!(decode_record(&snapshot).is_err());
        // The same for a pane record's shard count.
        let mut pane = encode_pane(3, false, 0, 1, 2, &CityAggregates::new(), &[]);
        pane.truncate(pane.len() - 4);
        put_u32(&mut pane, u32::MAX);
        assert!(decode_record(&pane).is_err());
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let payload = encode_dead_pole(12);
        assert!(decode_record(&payload[..payload.len() - 1])
            .unwrap_err()
            .contains("dead pole id"));
        let mut padded = payload;
        padded.push(0);
        assert!(decode_record(&padded).unwrap_err().contains("trailing"));
        assert!(decode_record(&[200]).unwrap_err().contains("unknown"));
    }
}
