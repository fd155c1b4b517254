//! Workspace-level property-based tests (proptest) on the core invariants:
//! FFT round trips, packet round trips, AoA round trips, the counting rule,
//! and the city layer's shard-count invariance.

use caraoke_dsp::{fft, ifft, Complex};
use caraoke_geom::{angle_to_phase_diff, phase_diff_to_angle, CARRIER_WAVELENGTH_M};
use caraoke_phy::modulation::{manchester_decode, manchester_encode};
use caraoke_phy::protocol::{TransponderId, TransponderPacket};
use caraoke_suite::city::FrameSource;
use caraoke_suite::city::{
    reference, PoleDirectory, PoleId, PoleReport, PoleSite, SegmentId, StoreConfig, SyntheticCity,
    TagKey, TagObservation,
};
use caraoke_suite::live::{LiveCity, LiveConfig};
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::RngExt;

proptest! {
    #[test]
    fn fft_ifft_round_trip(values in prop::collection::vec((-1.0e3f64..1.0e3, -1.0e3f64..1.0e3), 64)) {
        let signal: Vec<Complex> = values.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let back = ifft(&fft(&signal));
        for (a, b) in signal.iter().zip(back.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_preserves_energy(values in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 128)) {
        let signal: Vec<Complex> = values.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let spec = fft(&signal);
        let time_energy: f64 = signal.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / signal.len() as f64;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn packet_round_trip_for_any_fields(id in any::<u64>(), agency in any::<u128>(), factory in any::<u128>()) {
        let pkt = TransponderPacket::new(TransponderId(id), agency, factory);
        let bits = pkt.to_bits();
        prop_assert_eq!(bits.len(), caraoke_phy::PACKET_BITS);
        let parsed = TransponderPacket::from_bits(&bits).expect("CRC must verify");
        prop_assert_eq!(parsed, pkt);
    }

    #[test]
    fn single_bit_flip_is_always_detected(id in any::<u64>(), flip in 0usize..256) {
        let pkt = TransponderPacket::from_id(TransponderId(id));
        let mut bits = pkt.to_bits();
        bits[flip] ^= 1;
        prop_assert!(TransponderPacket::from_bits(&bits).is_none());
    }

    #[test]
    fn manchester_round_trip(bits in prop::collection::vec(0u8..2, 1..512)) {
        let chips = manchester_encode(&bits);
        prop_assert_eq!(chips.len(), bits.len() * 2);
        let decoded = manchester_decode(&chips).expect("even chip count");
        prop_assert_eq!(decoded, bits);
    }

    #[test]
    fn aoa_phase_round_trip(angle_deg in 5.0f64..175.0) {
        let spacing = CARRIER_WAVELENGTH_M / 2.0;
        let alpha = angle_deg.to_radians();
        let phase = angle_to_phase_diff(alpha, spacing, CARRIER_WAVELENGTH_M);
        let back = phase_diff_to_angle(phase, spacing, CARRIER_WAVELENGTH_M).expect("in range");
        prop_assert!((back - alpha).abs() < 1e-9);
    }

    #[test]
    fn counting_rule_never_overcounts_by_more_than_peaks(occupancies in prop::collection::vec(0u32..5, 1..200)) {
        // The §5 rule (min(occupancy, 2) per bin) never exceeds the true
        // count and never reports more than twice the number of peaks.
        let truth: u32 = occupancies.iter().sum();
        let estimate: u32 = occupancies.iter().map(|&o| o.min(2)).sum();
        let peaks = occupancies.iter().filter(|&&o| o > 0).count() as u32;
        prop_assert!(estimate <= truth);
        prop_assert!(estimate <= 2 * peaks);
        // And it is exact whenever no bin holds three or more tags.
        if occupancies.iter().all(|&o| o < 3) {
            prop_assert_eq!(estimate, truth);
        }
    }

    #[test]
    fn speed_error_bound_is_monotone_in_speed(v1 in 1.0f64..30.0, dv in 0.1f64..30.0) {
        let b1 = caraoke_geom::speed_error_bound(v1, 110.0, 2.6, 0.1);
        let b2 = caraoke_geom::speed_error_bound(v1 + dv, 110.0, 2.6, 0.1);
        prop_assert!(b2 >= b1);
    }

    #[test]
    fn city_aggregates_are_shard_count_invariant(
        // Random sightings: (tag, pole, epoch) triples over a 10-pole strip.
        sightings in prop::collection::vec((0u64..24, 0u32..10, 0u64..30), 1..200),
        shards in 2usize..16,
    ) {
        // Same seed (here: the same observation multiset) must yield
        // byte-identical aggregates for 1 shard and for N shards.
        let directory = || PoleDirectory::new(
            (0..10)
                .map(|i| PoleSite {
                    segment: SegmentId((i / 5) as u16),
                    position: caraoke_geom::Vec3::new(i as f64 * 25.0, -5.0, 3.8),
                })
                .collect(),
        );
        let reports: Vec<PoleReport> = sightings
            .iter()
            .map(|&(tag, pole, epoch)| {
                let t_us = epoch * 1_000_000;
                let obs = TagObservation {
                    tag: TagKey(tag),
                    pole: PoleId(pole),
                    segment: SegmentId((pole / 5) as u16),
                    cfo_bin: tag as u32,
                    cfo_hz: tag as f64 * 1953.125,
                    aoa_rad: 1.0,
                    has_aoa: true,
                    rssi_db: -45.0,
                    timestamp_us: t_us,
                    multi_occupied: false,
                    decoded: None,
                    position: None,
                };
                PoleReport {
                    pole: PoleId(pole),
                    segment: SegmentId((pole / 5) as u16),
                    timestamp_us: t_us,
                    count: 1,
                    peaks: 1,
                    observations: vec![obs],
                }
            })
            .collect();
        let run = |n_shards: usize| {
            let config = StoreConfig { shards: n_shards, ..Default::default() };
            reference::fold(&directory(), &config, 1_000_000, &reports).totals()
        };
        let one = run(1);
        let many = run(shards);
        prop_assert_eq!(&one, &many);
        prop_assert_eq!(one.fingerprint(), many.fingerprint());
        prop_assert_eq!(one.observations, sightings.len() as u64);
    }

    #[test]
    fn live_watermark_is_monotone_and_eviction_deterministic(
        n_poles in 2usize..8,
        epochs in 2usize..8,
        shards in 1usize..6,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // One synthetic city, two *randomized arrival interleavings* (both
        // FIFO per pole, which is the watermark contract): the watermark
        // must advance monotonically throughout, and the sealed window
        // sequence — including which panes the bounded ring evicted — must
        // be byte-identical.
        let source = SyntheticCity::new(n_poles, epochs, seed_a ^ seed_b);
        let config = LiveConfig {
            store: StoreConfig { shards, ..Default::default() },
            retain_panes: 3, // small on purpose: evictions must happen
            ..Default::default()
        };
        let deliver = |seed: u64| {
            let live = LiveCity::new(source.directory().clone(), config);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = vec![0usize; n_poles];
            let mut alive: Vec<u32> = (0..n_poles as u32).collect();
            let mut last_watermark = 0u64;
            let mut last_sealed = 0u64;
            while !alive.is_empty() {
                let i = rng.random_range(0..alive.len());
                let pole = alive[i];
                live.ingest(&source.report(pole, next[pole as usize]));
                next[pole as usize] += 1;
                if next[pole as usize] == epochs {
                    alive.swap_remove(i);
                }
                // Watermark monotonicity, pane-seal monotonicity, and the
                // lateness allowance keeping seals behind the watermark.
                let stats = live.stats();
                assert!(stats.watermark_us >= last_watermark, "watermark regressed");
                assert!(stats.sealed_panes >= last_sealed, "seal count regressed");
                assert!(stats.seal_floor_us <= stats.watermark_us,
                        "sealed past the watermark");
                last_watermark = stats.watermark_us;
                last_sealed = stats.sealed_panes;
            }
            live.finish();
            let retained: Vec<(u64, u64)> = live
                .snapshot(usize::MAX)
                .recent
                .iter()
                .map(|p| (p.pane, p.fingerprint))
                .collect();
            (live.fingerprint_chain(), live.totals().fingerprint(), live.sealed_panes(), retained)
        };
        let a = deliver(seed_a);
        let b = deliver(seed_b);
        // The sealed window sequence must not depend on arrival order, and
        // the flush leaves exactly one pane per epoch.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.2, epochs as u64);
    }
}
