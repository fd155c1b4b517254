//! # caraoke-bench
//!
//! The benchmark/experiment harness that regenerates every table and figure
//! of the Caraoke evaluation (§12). Each `figXX_*` / `table_*` function runs
//! the corresponding workload and returns printable rows; the `experiments`
//! binary prints them, and the Criterion benches time the underlying
//! computations.
//!
//! The functions take explicit trial counts so that benches can run reduced
//! versions while the `experiments` binary runs the full versions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query_scale;
pub mod scale;

use caraoke::counting::{counting_accuracy_monte_carlo, counting_accuracy_percent, probability};
use caraoke::multipath::{
    circular_aperture, default_azimuth_grid, dominant_peak_ratio, measure_aperture,
    multipath_profile, SAR_ARM_RADIUS_M,
};
use caraoke::{analyze_collision, ReaderConfig};
use caraoke_baseline::camera::{CameraCondition, CameraCounter};
use caraoke_baseline::naive_count::naive_counting_accuracy;
use caraoke_city::{reference, FrameSource, StoreConfig, SyntheticCity};
use caraoke_dsp::{magnitude_spectrum, Summary};
use caraoke_geom::units::CARRIER_WAVELENGTH_M;
use caraoke_geom::Vec3;
use caraoke_live::{Interleaving, LiveConfig, LiveDriver};
use caraoke_phy::antenna::{AntennaArray, ArrayGeometry};
use caraoke_phy::channel::{MultipathRay, PropagationModel};
use caraoke_phy::modulation::slice_bits;
use caraoke_phy::protocol::{TransponderId, TransponderPacket};
use caraoke_phy::{synthesize_collision, CfoModel, SignalConfig, Transponder};
use caraoke_power::solar::DiurnalProfile;
use caraoke_power::{Battery, DutyCycle, EnergyBudget};
use caraoke_sim::multireader::simulate_readers;
use caraoke_sim::{
    CountingScenario, DecodingScenario, IntersectionSim, ParkingScenario, SpeedScenario,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of FFT bins spanned by the CFO range with the default window
/// (§5: ≈615).
pub const N_BINS: usize = 615;

/// FFT bin resolution of the default 512 µs / 4 MS/s window, Hz.
pub const BIN_RESOLUTION_HZ: f64 = 1953.125;

/// One printable row of an experiment: a label and a set of named values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (e.g. "m = 5" or "spot 3").
    pub label: String,
    /// `(column name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<(&str, f64)>) -> Self {
        Self {
            label: label.into(),
            values: values
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Best-effort current git revision (short hash), `"unknown"` outside a
/// repository — stamped into the benchmark JSON records so the perf
/// trajectory can be tracked across PRs.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes `BENCH_<name>.json` at the workspace root: a flat, hand-rolled
/// JSON record (`bench`, `git_rev`, a `config` object, a `results` object)
/// that CI and later PRs can diff without parsing Criterion output. Values
/// are pre-rendered JSON fragments (numbers or quoted strings); keys may be
/// borrowed or owned.
pub fn write_bench_json(
    name: &str,
    config: &[(impl AsRef<str>, String)],
    results: &[(impl AsRef<str>, String)],
) -> std::io::Result<std::path::PathBuf> {
    fn section(json: &mut String, title: &str, fields: &[(impl AsRef<str>, String)], last: bool) {
        json.push_str(&format!("  \"{title}\": {{\n"));
        for (i, (key, value)) in fields.iter().enumerate() {
            let comma = if i + 1 < fields.len() { "," } else { "" };
            json.push_str(&format!("    \"{}\": {value}{comma}\n", key.as_ref()));
        }
        json.push_str(if last { "  }\n" } else { "  },\n" });
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"bench\": \"{name}\",\n"));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    section(&mut json, "config", config, false);
    section(&mut json, "results", results, true);
    json.push_str("}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Formats rows as an aligned text table.
pub fn format_rows(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    for row in rows {
        out.push_str(&format!("  {:<26}", row.label));
        for (k, v) in &row.values {
            out.push_str(&format!(" {k}={v:.3}"));
        }
        out.push('\n');
    }
    out
}

/// Fig. 4: spectrum of a five-transponder collision — returns `(cfo_khz,
/// normalised power)` samples restricted to the CFO band, plus the detected
/// peak count.
pub fn fig04_spectrum(seed: u64) -> (Vec<(f64, f64)>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ReaderConfig::default();
    let carriers = [914.35e6, 914.55e6, 914.82e6, 915.05e6, 915.38e6];
    let tags: Vec<Transponder> = carriers
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            Transponder::new(
                TransponderPacket::from_id(TransponderId(i as u64 + 1)),
                f,
                Vec3::new(4.0 + 2.0 * i as f64, 1.0, 1.2),
            )
        })
        .collect();
    let array = AntennaArray::from_geometry(
        Vec3::new(0.0, -5.0, 3.8),
        Vec3::new(0.0, 1.0, 0.0),
        ArrayGeometry::default_pair(),
    );
    let signal = synthesize_collision(
        &tags,
        &array,
        &PropagationModel::line_of_sight(),
        &config.signal,
        &mut rng,
    );
    let spectrum = analyze_collision(&signal, &config).expect("spectrum");
    let mags = magnitude_spectrum(&spectrum.spectra[0]);
    let max = mags[..config.signal.cfo_bins()]
        .iter()
        .cloned()
        .fold(0.0_f64, f64::max);
    let series = mags[..config.signal.cfo_bins()]
        .iter()
        .enumerate()
        .map(|(bin, &m)| (bin as f64 * BIN_RESOLUTION_HZ / 1e3, m / max))
        .collect();
    (series, spectrum.peaks.len())
}

/// §5 analysis table: probability of not missing any transponder for the
/// naive estimator (Eq. 7), the Caraoke bound (Eq. 9), and Monte-Carlo with
/// the empirical CFO model.
pub fn counting_probability_table(trials: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    [5usize, 10, 20]
        .iter()
        .map(|&m| {
            let naive = probability::naive_no_miss(N_BINS, m);
            let bound = probability::caraoke_no_miss_lower_bound(N_BINS, m);
            let empirical = counting_accuracy_monte_carlo(
                m,
                CfoModel::Empirical,
                BIN_RESOLUTION_HZ,
                N_BINS,
                trials,
                &mut rng,
            );
            Row::new(
                format!("m = {m}"),
                vec![
                    ("naive_eq7", naive),
                    ("caraoke_eq9_bound", bound),
                    ("empirical_mc", empirical),
                ],
            )
        })
        .collect()
}

/// Fig. 8: decoding by averaging — returns the bit-error rate of the target
/// tag's sliced bits after combining 1, 8 and 16 collisions of a 5-tag
/// pile-up.
pub fn fig08_averaging(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ReaderConfig::default();
    let tags: Vec<Transponder> = (0..5)
        .map(|i| {
            Transponder::with_id(
                i as u64 + 1,
                Vec3::new(4.0 + 2.0 * i as f64, (i % 3) as f64 - 1.0, 1.2),
                CfoModel::Uniform,
                &mut rng,
            )
        })
        .collect();
    let array = AntennaArray::from_geometry(
        Vec3::new(0.0, -5.0, 3.8),
        Vec3::new(0.0, 1.0, 0.0),
        ArrayGeometry::default_pair(),
    );
    let queries: Vec<_> = (0..16)
        .map(|_| {
            synthesize_collision(
                &tags,
                &array,
                &PropagationModel::line_of_sight(),
                &config.signal,
                &mut rng,
            )
        })
        .collect();
    let truth = tags[0].packet.to_bits();
    let target_cfo = tags[0].cfo();

    [1usize, 8, 16]
        .iter()
        .map(|&n| {
            // Re-run the §8 combining manually over the first n queries so we
            // can measure the raw bit-error rate (the decoder itself stops at
            // the CRC).
            let n_samples = config.signal.response_samples();
            let mut acc = vec![caraoke_dsp::Complex::ZERO; n_samples];
            for q in queries.iter().take(n) {
                let samples = q.antenna(0);
                let peak = caraoke_dsp::goertzel::dtft_at_frequency(
                    samples,
                    target_cfo,
                    config.signal.sample_rate,
                );
                let h = peak / (n_samples as f64 / 2.0);
                let step = caraoke_dsp::Complex::from_angle(
                    -2.0 * std::f64::consts::PI * target_cfo / config.signal.sample_rate,
                );
                let mut rot = caraoke_dsp::Complex::ONE;
                let inv = h.recip();
                for (a, &s) in acc.iter_mut().zip(samples.iter()) {
                    *a += s * rot * inv;
                    rot *= step;
                }
            }
            let bits = slice_bits(
                &acc,
                config.signal.samples_per_chip(),
                caraoke_phy::timing::RESPONSE_BITS,
            );
            let errors = bits
                .iter()
                .zip(truth.iter())
                .filter(|(a, b)| a != b)
                .count();
            Row::new(
                format!("averaged over {n} replies"),
                vec![("bit_error_rate", errors as f64 / truth.len() as f64)],
            )
        })
        .collect()
}

/// Fig. 11: counting accuracy versus number of colliding transponders,
/// using the bin-level Monte-Carlo estimator with empirical CFOs (the paper's
/// methodology: measured CFOs combined in post-processing), plus the naive
/// baseline.
pub fn fig11_counting(trials: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=10)
        .map(|k| {
            let m = k * 5;
            let caraoke = counting_accuracy_percent(
                m,
                CfoModel::Empirical,
                BIN_RESOLUTION_HZ,
                N_BINS,
                trials,
                &mut rng,
            );
            let naive = 100.0
                * naive_counting_accuracy(
                    m,
                    CfoModel::Empirical,
                    BIN_RESOLUTION_HZ,
                    N_BINS,
                    trials,
                    &mut rng,
                );
            Row::new(
                format!("{m} transponders"),
                vec![("caraoke_accuracy_%", caraoke), ("naive_exact_%", naive)],
            )
        })
        .collect()
}

/// Fig. 11 (signal level): end-to-end counting accuracy through the full
/// signal pipeline for moderate tag counts.
pub fn fig11_signal_level(runs: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    [5usize, 10, 15]
        .iter()
        .map(|&m| {
            let (accuracy, errors) =
                CountingScenario::new(m, CfoModel::Empirical).run(runs, &mut rng);
            Row::new(
                format!("{m} transponders"),
                vec![("accuracy_%", accuracy), ("mean_abs_error", errors.mean)],
            )
        })
        .collect()
}

/// Fig. 12: intersection traffic over several light cycles — per-street
/// average and peak queue, plus a camera-baseline estimate of the peak.
pub fn fig12_traffic(duration_s: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = IntersectionSim::street_a_and_c();
    let series = sim.run(duration_s, &mut rng);
    let camera = CameraCounter::new(CameraCondition::LowLight);
    series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let name = if i == 0 { "Street A" } else { "Street C" };
            let queues: Vec<f64> = s.iter().map(|q| q.queue as f64).collect();
            let peak = queues.iter().cloned().fold(0.0_f64, f64::max);
            let avg = caraoke_dsp::mean(&queues);
            let cam_est = camera.estimate(peak as usize, &mut rng) as f64;
            Row::new(
                name,
                vec![
                    ("avg_queue", avg),
                    ("peak_queue", peak),
                    ("camera_estimate_of_peak", cam_est),
                ],
            )
        })
        .collect()
}

/// Fig. 13: parking localization error per spot (degrees).
pub fn fig13_localization(runs_per_spot: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let results = ParkingScenario::default().run(runs_per_spot, &mut rng);
    results
        .into_iter()
        .map(|(spot, summary)| {
            Row::new(
                format!("spot {spot}"),
                vec![
                    ("mean_error_deg", summary.mean),
                    ("std_dev_deg", summary.std_dev),
                ],
            )
        })
        .collect()
}

/// Fig. 14: multipath profile — returns the dominant-to-second peak power
/// ratio summarised over `runs` random street geometries (paper: ≈27×).
pub fn fig14_multipath(runs: usize, seed: u64) -> Summary {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ratios = Vec::with_capacity(runs);
    for _ in 0..runs {
        let center = Vec3::new(0.0, 0.0, 3.8);
        let tag = Vec3::new(
            rng.random_range(5.0..25.0),
            rng.random_range(-6.0..6.0),
            1.2,
        );
        // Street-scale reflectors (building façades, parked vans) are both
        // farther than the LOS path and lossy; a 10–25 % field reflection
        // reproduces the order-of-magnitude LOS dominance Fig. 14 reports.
        let model = PropagationModel::with_rays(vec![MultipathRay {
            scatterer: Vec3::new(
                rng.random_range(-25.0..25.0),
                rng.random_range(15.0..35.0),
                rng.random_range(0.5..4.0),
            ),
            reflection_loss: rng.random_range(0.10..0.25),
        }]);
        let aperture = circular_aperture(center, SAR_ARM_RADIUS_M, 72);
        let samples = measure_aperture(tag, &aperture, &model);
        let profile = multipath_profile(&samples, CARRIER_WAVELENGTH_M, &default_azimuth_grid());
        let ratio = dominant_peak_ratio(&profile, 10);
        if ratio.is_finite() {
            ratios.push(ratio);
        }
    }
    Summary::of(&ratios)
}

/// Fig. 15: detected versus actual speed for 10–50 mph.
pub fn fig15_speed(runs_per_speed: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    [10.0_f64, 20.0, 30.0, 40.0, 50.0]
        .iter()
        .map(|&mph| {
            let mut estimates = Vec::new();
            for _ in 0..runs_per_speed {
                if let Ok(est) = SpeedScenario::new(mph).run(&mut rng) {
                    estimates.push(est);
                }
            }
            let summary = Summary::of(&estimates);
            let rel_errors: Vec<f64> = estimates
                .iter()
                .map(|e| (e - mph).abs() / mph * 100.0)
                .collect();
            Row::new(
                format!("{mph} mph"),
                vec![
                    ("detected_mean_mph", summary.mean),
                    ("mean_rel_error_%", caraoke_dsp::mean(&rel_errors)),
                    (
                        "p90_rel_error_%",
                        caraoke_dsp::percentile(&rel_errors, 90.0),
                    ),
                ],
            )
        })
        .collect()
}

/// Fig. 16: identification time versus number of colliding transponders.
pub fn fig16_decoding(runs: usize, seed: u64, tag_counts: &[usize]) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    tag_counts
        .iter()
        .map(|&m| {
            let mut times = Vec::new();
            let mut failures = 0usize;
            for _ in 0..runs {
                match DecodingScenario::new(m).run(&mut rng) {
                    Ok(ms) => times.push(ms),
                    Err(_) => failures += 1,
                }
            }
            let summary = Summary::of(&times);
            Row::new(
                format!("{m} transponders"),
                vec![
                    ("identification_time_ms", summary.mean),
                    ("p90_ms", summary.p90),
                    ("failures", failures as f64),
                ],
            )
        })
        .collect()
}

/// §12.5 power table: active/sleep/average power, harvest margin, endurance.
pub fn table_power() -> Vec<Row> {
    let budget = EnergyBudget::default();
    let mut rows = vec![
        Row::new(
            "power profile",
            vec![
                ("active_mW", budget.profile.active_w * 1e3),
                ("sleep_uW", budget.profile.sleep_w * 1e6),
                ("solar_peak_mW", budget.panel.peak_output_w() * 1e3),
            ],
        ),
        Row::new(
            "1 query burst / second",
            vec![
                ("average_mW", budget.average_consumption_w() * 1e3),
                ("harvest_margin_x", budget.harvest_margin()),
                (
                    "runtime_days_from_3h_sun",
                    budget.runtime_hours_from_sun(3.0) / 24.0,
                ),
            ],
        ),
    ];
    for period in [0.5, 2.0, 10.0] {
        let b = EnergyBudget {
            duty_cycle: DutyCycle::for_queries(10, period),
            ..Default::default()
        };
        rows.push(Row::new(
            format!("burst every {period} s"),
            vec![
                ("average_mW", b.average_consumption_w() * 1e3),
                ("harvest_margin_x", b.harvest_margin()),
            ],
        ));
    }
    let endurance = EnergyBudget::default().simulate_endurance(
        Battery::small_lithium(),
        DiurnalProfile::clear(4.0),
        24 * 30,
    );
    rows.push(Row::new(
        "30-day endurance (4 h sun/day)",
        vec![
            ("hours_survived", endurance.hours_survived),
            ("final_soc", endurance.final_soc),
        ],
    ));
    rows
}

/// §9 MAC table: harmful collisions with and without carrier sense.
pub fn table_mac(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let csma = simulate_readers(4, 100.0, 2.0, &caraoke::mac::CsmaMac::default(), &mut rng);
    let none = simulate_readers(4, 100.0, 2.0, &caraoke::mac::CsmaMac::disabled(), &mut rng);
    vec![
        Row::new(
            "CSMA (120 us listen)",
            vec![
                ("queries", csma.queries as f64),
                ("harmful_collisions", csma.harmful_collisions as f64),
                ("query_overlaps", csma.query_overlaps as f64),
                ("mean_access_delay_ms", csma.mean_access_delay_s * 1e3),
            ],
        ),
        Row::new(
            "no carrier sense",
            vec![
                ("queries", none.queries as f64),
                ("harmful_collisions", none.harmful_collisions as f64),
                ("query_overlaps", none.query_overlaps as f64),
                ("mean_access_delay_ms", none.mean_access_delay_s * 1e3),
            ],
        ),
    ]
}

/// §10 sparse-FFT comparison: recovered peak count for a k-sparse collision
/// via the dense FFT pipeline and the sparse FFT.
pub fn sfft_comparison(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SignalConfig {
        noise_std: 0.001,
        ..Default::default()
    };
    let array = AntennaArray::from_geometry(
        Vec3::new(0.0, -5.0, 3.8),
        Vec3::new(0.0, 1.0, 0.0),
        ArrayGeometry::default_pair(),
    );
    [2usize, 5, 8]
        .iter()
        .map(|&k| {
            let tags: Vec<Transponder> = (0..k)
                .map(|i| {
                    Transponder::new(
                        TransponderPacket::from_id(TransponderId(i as u64)),
                        caraoke_phy::cfo::MIN_TAG_CARRIER_HZ
                            + (60 + i * (500 / k)) as f64 * cfg.bin_resolution(),
                        Vec3::new(5.0 + i as f64, 0.0, 1.2),
                    )
                })
                .collect();
            let sig = synthesize_collision(
                &tags,
                &array,
                &PropagationModel::line_of_sight(),
                &cfg,
                &mut rng,
            );
            let dense_peaks = {
                let config = ReaderConfig {
                    signal: cfg,
                    ..Default::default()
                };
                analyze_collision(&sig, &config)
                    .map(|s| s.peaks.len())
                    .unwrap_or(0)
            };
            // Keep only sparse-FFT spikes within 20 dB of the strongest one:
            // the carrier spikes of co-located tags are within a few dB of
            // each other, whereas OOK data sidebands sit far below.
            let sparse = caraoke_dsp::SparseFft::with_defaults().analyze(sig.antenna(0));
            let strongest = sparse.iter().map(|p| p.value.abs()).fold(0.0_f64, f64::max);
            let sparse_peaks = sparse
                .into_iter()
                .filter(|p| p.bin <= cfg.cfo_bins() && p.value.abs() >= strongest / 10.0)
                .count();
            Row::new(
                format!("{k} tags"),
                vec![
                    ("dense_fft_peaks", dense_peaks as f64),
                    ("sparse_fft_peaks", sparse_peaks as f64),
                ],
            )
        })
        .collect()
}

/// Two-reader localization error sweep (§6, §12.2): the full PHY → AoA →
/// conic-intersection pipeline at two opposite-side readers, swept over
/// `n_positions` car positions, reported against the paper's ~1 m median
/// claim.
pub fn localization_error(n_positions: usize, seed: u64) -> Vec<Row> {
    let scenario = caraoke_sim::TwoReaderLocalizationScenario {
        n_positions,
        seed,
        ..Default::default()
    };
    let report = scenario.run();
    vec![Row::new(
        format!(
            "{} positions, {:.0} m spacing",
            scenario.n_positions, scenario.pole_spacing_m
        ),
        vec![
            ("fix_rate", report.fix_rate()),
            ("median_error_m", report.median_error_m),
            ("p90_error_m", report.p90_error_m),
            ("mean_error_m", report.mean_error_m),
        ],
    )]
}

/// Online (streaming) city ingestion workload: a synthetic city streamed
/// through the watermarked `caraoke-live` engine. Reports throughput, the
/// load-shedding and alias telemetry, the window-fingerprint invariance
/// check across shard counts, worker counts and two arrival interleavings,
/// and the check against the [`caraoke_city::reference`] fold.
pub fn live_scale(n_poles: usize, epochs: usize, workers: usize, seed: u64) -> Vec<Row> {
    let mut source = SyntheticCity::new(n_poles, epochs, seed);
    // CFO-keyed identities at city density shares bins across tags, so the
    // §8 decode-alias upgrade path (and its collision counter) is exercised.
    source.cfo_keyed = true;
    let driver = |workers: usize, shards: usize, interleaving: Interleaving| LiveDriver {
        workers,
        interleaving,
        config: LiveConfig {
            store: StoreConfig {
                shards,
                ..Default::default()
            },
            // The sharded tracker pool (clamped to the shard count, so the
            // 1-shard determinism run below stays serial; sized to the
            // caller's worker count so a 1-core run stays serial too).
            seal_pool: workers.min(2),
            ..Default::default()
        },
        pace_lag_panes: None,
    };
    let run = driver(workers, 16, Interleaving::PoleStriped).run(&source);
    let oracle = reference::fold(
        source.directory(),
        &StoreConfig::default(),
        LiveConfig::default().pane_us,
        &reference::reports_of(&source),
    );
    let mut rows = vec![Row::new(
        format!("{n_poles} poles x {epochs} epochs (online)"),
        vec![
            ("observations", run.stats.observations as f64),
            ("obs_per_sec", run.observations_per_sec()),
            ("sealed_panes", run.stats.sealed_panes as f64),
            ("shed_reports", run.stats.shed_reports as f64),
            ("alias_upgrades", run.stats.alias.decode_upgrades as f64),
            ("alias_collision_rate", run.stats.alias.collision_rate()),
            (
                "localized_fraction",
                run.totals.positions.localized_fraction(),
            ),
            (
                "track_speed_samples",
                run.totals.positions.track_speed_samples as f64,
            ),
        ],
    )];
    // Determinism: 1 shard / 1 worker and a shuffled-FIFO delivery must
    // both reproduce the window fingerprint chain, and the chain and totals
    // must match the reference fold byte-for-byte.
    let single = driver(1, 1, Interleaving::PoleStriped).run(&source);
    let shuffled = driver(1, 4, Interleaving::ShuffledFifo { seed: seed ^ 0xA5 }).run(&source);
    // Hard asserts for the CI smoke: interleaving invariance and live ==
    // reference must fail the run, not just flip a reported flag.
    assert_eq!(
        run.chain_fingerprint, single.chain_fingerprint,
        "window chain must be invariant to shard/worker counts"
    );
    assert_eq!(
        run.chain_fingerprint, shuffled.chain_fingerprint,
        "window chain must be invariant to arrival interleaving"
    );
    let matches_oracle = run.totals == oracle.totals() && run.chain_fingerprint == oracle.chain();
    assert!(
        matches_oracle,
        "online chain and totals must equal the reference fold"
    );
    rows.push(Row::new(
        "window invariance",
        vec![
            (
                "chains_match",
                (run.chain_fingerprint == single.chain_fingerprint
                    && run.chain_fingerprint == shuffled.chain_fingerprint) as u64
                    as f64,
            ),
            ("matches_reference", matches_oracle as u64 as f64),
            ("p50_speed_mph", run.totals.speeds.percentile_mph(50.0)),
            ("p90_speed_mph", run.totals.speeds.percentile_mph(90.0)),
        ],
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_finds_five_peaks() {
        let (series, peaks) = fig04_spectrum(1);
        assert_eq!(peaks, 5);
        assert!(!series.is_empty());
        assert!(series.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn counting_probability_rows_match_paper_shape() {
        let rows = counting_probability_table(5_000, 2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let naive = row.values[0].1;
            let bound = row.values[1].1;
            assert!(bound > naive);
        }
    }

    #[test]
    fn fig08_bit_errors_drop_with_averaging() {
        let rows = fig08_averaging(3);
        let ber: Vec<f64> = rows.iter().map(|r| r.values[0].1).collect();
        assert!(
            ber[0] > ber[2],
            "BER must drop from {} to {}",
            ber[0],
            ber[2]
        );
        assert!(
            ber[2] < 0.05,
            "after 16 averages the target should be clean"
        );
    }

    #[test]
    fn fig11_accuracy_degrades_gracefully() {
        let rows = fig11_counting(2_000, 4);
        assert_eq!(rows.len(), 10);
        let first = rows[0].values[0].1;
        let last = rows[9].values[0].1;
        assert!(first > 99.0);
        assert!(last <= first);
        assert!(last > 90.0);
    }

    #[test]
    fn table_power_matches_paper_numbers() {
        let rows = table_power();
        let avg = rows[1].values[0].1;
        let margin = rows[1].values[1].1;
        assert!((avg - 9.0).abs() < 1.0, "average {avg} mW");
        assert!((margin - 56.0).abs() < 8.0, "margin {margin}x");
    }

    #[test]
    fn table_mac_shows_csma_wins() {
        let rows = table_mac(5);
        let csma_harmful = rows[0].values[1].1;
        let none_harmful = rows[1].values[1].1;
        assert_eq!(csma_harmful, 0.0);
        assert!(none_harmful > 0.0);
    }

    #[test]
    fn live_scale_reports_online_invariance() {
        let rows = live_scale(64, 10, 4, 3);
        assert_eq!(rows.len(), 2);
        let obs = rows[0].values[0].1;
        assert!(obs > 1_000.0, "observations {obs}");
        assert_eq!(rows[0].values[3].1, 0.0, "FIFO delivery must not shed");
        assert_eq!(rows[1].values[0].1, 1.0, "window chains must match");
        assert_eq!(
            rows[1].values[1].1, 1.0,
            "online must match the reference fold"
        );
    }

    #[test]
    fn format_rows_is_readable() {
        let text = format_rows("demo", &[Row::new("a", vec![("x", 1.0)])]);
        assert!(text.contains("== demo =="));
        assert!(text.contains("x=1.000"));
    }
}
