//! The benchmark's timing rules: tail percentiles, frame-to-pane
//! attribution and when a pane is due for release.

use citybench::rules::{PaneClock, PaneCursor};
use citybench::stats::{chunked_tail, percentile, tail, MAX_CHUNKS, TAIL_BEYOND};

#[test]
fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&values, 99.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.value, 990.0);
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    assert_eq!(t.p50, 500.0);

    // 500 samples cannot support p99: the rule lowers it to p98.
    let fewer: Vec<f64> = (1..=500).map(f64::from).collect();
    let t = tail(&fewer, 99.0);
    assert_eq!(t.samples, 500);
    assert!((t.percentile - 98.0).abs() < 1e-9, "{t:?}");
    assert_eq!(fewer.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

    // Too few samples for any tail: the median stands in.
    let t = tail(&[3.0, 1.0, 2.0], 99.0);
    assert_eq!((t.percentile, t.value, t.samples), (50.0, 2.0, 3));
}

#[test]
fn chunked_tails_confine_a_stall_to_its_chunk() {
    // 8,000 samples of 1 ms with one 100-sample stall at 500 ms: over the
    // whole run the stall owns the p99, but only one chunk sees it.
    let mut values = vec![1.0f64; 8_000];
    for v in &mut values[3_000..3_100] {
        *v = 500.0;
    }
    assert_eq!(tail(&values, 99.0).value, 500.0);
    let t = chunked_tail(&values, 1.0, 99.0);
    assert_eq!((t.chunks, t.samples, t.percentile), (8, 8_000, 99.0));
    assert_eq!((t.p50, t.value), (1.0, 1.0));

    // Each chunk must keep ten samples beyond its p99, so 1,500 samples
    // make one chunk, and `scale` converts units.
    let ns: Vec<u32> = (1..=1_500).collect();
    let t = chunked_tail(&ns, 1e-6, 99.0);
    assert_eq!(t.chunks, 1);
    assert!((t.value - 1_485.0e-6).abs() < 1e-12, "{t:?}");
    // Long runs are split into at most MAX_CHUNKS chunks.
    let many = vec![2u32; 1_000 * (MAX_CHUNKS + 5)];
    assert_eq!(chunked_tail(&many, 1.0, 99.0).chunks, MAX_CHUNKS);
}

#[test]
fn percentile_is_nearest_rank_and_order_free() {
    let sorted = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(percentile(&sorted, 25.0), 1.0);
    assert_eq!(percentile(&sorted, 50.0), 2.0);
    assert_eq!(percentile(&sorted, 100.0), 4.0);
    assert!(percentile(&[], 50.0).is_nan());
    let shuffled = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(tail(&shuffled, 99.0).p50, 2.0);
}

#[test]
fn a_frame_delivers_every_pane_up_to_its_own() {
    let mut cursor = PaneCursor::starting_at(0);
    assert_eq!(cursor.deliver(0), 0..1);
    // A fan-out round that coalesced panes 1..=3 delivers all three.
    assert_eq!(cursor.deliver(3), 1..4);
    // A duplicate or older frame delivers nothing new.
    assert_eq!(cursor.deliver(3), 4..4);
    assert_eq!(cursor.deliver(2), 4..4);
    assert_eq!(cursor.next(), 4);
    // A stream that attached mid-run starts at its first frame's pane.
    let mut late = PaneCursor::starting_at(7);
    assert_eq!(late.deliver(8), 7..9);
}

#[test]
fn a_pane_is_due_when_every_pole_passes_its_lateness_boundary() {
    // Synthetic city: epoch = pane = 1.5 s, one pane of lateness. Pane p
    // seals once epoch p + 2 has arrived from every pole.
    let synth = PaneClock {
        epoch_us: 1_500_000,
        pane_us: 1_500_000,
        lateness_panes: 1,
    };
    assert_eq!(synth.release_epoch(0), 2);
    assert_eq!(synth.release_epoch(10), 12);
    assert_eq!(synth.sealable_after(12), 11);
    assert_eq!(synth.sealable_after(0), 0);
    assert_eq!(synth.pane_of(7), 7);
    // Pacing waits for pane e - 3 after sending epoch e.
    assert_eq!(synth.pace_floor_us(2), None);
    assert_eq!(synth.pace_floor_us(3), Some(1_500_000));
    assert_eq!(synth.pace_floor_us(10), Some(8 * 1_500_000));

    // Campus: 1 s epochs under 1.5 s panes. Pane 0 ends at 1.5 s; the
    // lateness boundary is 3 s, first reached by epoch 3.
    let campus = PaneClock {
        epoch_us: 1_000_000,
        pane_us: 1_500_000,
        lateness_panes: 1,
    };
    assert_eq!(campus.release_epoch(0), 3);
    assert_eq!(campus.release_epoch(1), 5);
    assert_eq!(campus.release_epoch(2), 6);
    // Epochs 0 and 1 fall in pane 0, epoch 2 in pane 1 (t = 2 s).
    assert_eq!(
        (campus.pane_of(1), campus.pane_of(2), campus.pane_of(3)),
        (0, 1, 2)
    );
    for pane in 0..50 {
        let e = campus.release_epoch(pane);
        assert!(
            campus.sealable_after(e) > pane,
            "epoch {e} releases pane {pane}"
        );
        assert!(
            campus.sealable_after(e - 1) <= pane,
            "epoch {} is too early for {pane}",
            e - 1
        );
    }
}
