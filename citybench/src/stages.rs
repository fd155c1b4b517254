//! The reader pipeline stage by stage, on the campus deployment.
//!
//! `PhyCity` runs the whole reader pipeline inside one `report` call, so
//! its stages cannot be timed from outside. This probe rebuilds the campus
//! poles and tags from the same public constructors `PhyCity::campus` uses,
//! runs each stage as a separate call — `Pole::receive` (sim/phy),
//! `caraoke_dsp::fft` (dsp), `analyze_collision` and `localize_peaks`
//! (core), `try_localize_two_readers` (geom) — and checks that the stages
//! reproduce `Pole::query` for the same RNG seed.

use crate::trace::{Kind, Tracer};
use caraoke::counting::count_from_spectrum;
use caraoke::{analyze_collision, localize_peaks, QueryReport};
use caraoke_city::synth::mix_seed;
use caraoke_geom::localize::RoadRegion;
use caraoke_geom::{mph_to_mps, try_localize_two_readers, ReaderPose, Vec3};
use caraoke_phy::antenna::ArrayGeometry;
use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
use caraoke_phy::channel::PropagationModel;
use caraoke_phy::protocol::{TransponderId, TransponderPacket};
use caraoke_phy::Transponder;
use caraoke_sim::{Pole, Street, Vehicle};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Poles per campus street, as the phy-campus workload pins it.
pub const POLES_PER_STREET: usize = 8;
const POLE_SPACING_M: f64 = 24.0;
const BIN_RESOLUTION_HZ: f64 = 1953.125;

/// The campus deployment rebuilt from public constructors.
pub struct Campus {
    streets: Vec<Street>,
    poles: Vec<Pole>,
    /// `(street, vehicle)` pairs.
    vehicles: Vec<(usize, Vehicle)>,
}

impl Campus {
    /// Rebuilds the `PhyCity::campus(POLES_PER_STREET, ..)` deployment.
    pub fn new() -> Self {
        let streets = Street::campus();
        let mut poles = Vec::new();
        let mut vehicles = Vec::new();
        let mut next_bin = 30usize;
        let mut next_id = 1u64;
        let mut tag = |pos: Vec3, speed_mph: f64| {
            let carrier = MIN_TAG_CARRIER_HZ + next_bin as f64 * BIN_RESOLUTION_HZ;
            let transponder = Transponder::new(
                TransponderPacket::from_id(TransponderId(next_id)),
                carrier,
                pos + Vec3::new(0.0, 0.0, 1.2),
            );
            next_bin += 25;
            next_id += 1;
            Vehicle {
                transponder,
                start: pos,
                velocity: Vec3::new(mph_to_mps(speed_mph), 0.0, 0.0),
            }
        };
        for (s, street) in streets.iter().enumerate() {
            for p in 0..POLES_PER_STREET {
                poles.push(Pole::new(
                    &format!("{} pole {}", street.name, p),
                    p as f64 * POLE_SPACING_M,
                    -6.0,
                    Street::pole_height(),
                    ArrayGeometry::default_pair(),
                ));
            }
            if street.parking_near_side {
                for spot in street.parking_row(4.0, 2) {
                    vehicles.push((s, tag(spot.center, 0.0)));
                }
            }
            let lane_y = street.lane_center_y(0);
            let speed = 24.0 + 3.0 * s as f64;
            vehicles.push((s, tag(Vec3::new(2.0, lane_y, 0.0), speed)));
            vehicles.push((s, tag(Vec3::new(-18.0, lane_y, 0.0), speed + 4.0)));
        }
        Self {
            streets,
            poles,
            vehicles,
        }
    }

    /// Number of poles.
    pub fn n_poles(&self) -> usize {
        self.poles.len()
    }

    fn tags(&self, street: usize, t_s: f64) -> Vec<Transponder> {
        self.vehicles
            .iter()
            .filter(|(s, _)| *s == street)
            .map(|(_, v)| v.transponder_at(t_s))
            .collect()
    }

    fn region(&self, street: usize) -> RoadRegion {
        let half_width = self.streets[street].width() / 2.0;
        RoadRegion {
            x_min: -40.0,
            x_max: (POLES_PER_STREET - 1) as f64 * POLE_SPACING_M + 40.0,
            y_min: -half_width,
            y_max: half_width,
            z: 0.0,
        }
    }
}

impl Default for Campus {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-call stage times, µs, from [`run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `Pole::receive`.
    pub synth_us: f64,
    /// `fft` over every antenna of one collision.
    pub fft_us: f64,
    /// `analyze_collision`.
    pub analyze_us: f64,
    /// `localize_peaks`.
    pub aoa_us: f64,
    /// `try_localize_two_readers`.
    pub fix_us: f64,
}

/// Runs every pole of the campus for `epochs` epochs (1 s apart, as in
/// `PhyCity`) through the stages, with RNG seeds derived from `seed` as
/// `PhyCity` derives them. Fails if any stage output differs from
/// `Pole::query`.
pub fn run(
    campus: &Campus,
    epochs: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<StageTimes, String> {
    let propagation = PropagationModel::line_of_sight();
    for epoch in 0..epochs {
        let mut reports: Vec<QueryReport> = Vec::with_capacity(campus.n_poles());
        for (i, pole) in campus.poles.iter().enumerate() {
            let street = i / POLES_PER_STREET;
            let tags = campus.tags(street, epoch as f64);
            let rng_seed = mix_seed(seed, i as u32, epoch);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let signal = tracer.time(Kind::Synth, 0, || {
                pole.receive(&tags, &propagation, &mut rng)
            });
            tracer.time(Kind::Fft, 0, || {
                for samples in &signal.antennas {
                    std::hint::black_box(caraoke_dsp::fft(samples));
                }
            });
            let config = pole.reader.config();
            let spectrum = tracer
                .time(Kind::Analyze, 0, || analyze_collision(&signal, config))
                .map_err(|e| format!("analyze_collision: {e}"))?;
            let count = count_from_spectrum(&spectrum);
            let aoa = tracer
                .time(Kind::Aoa, 0, || {
                    localize_peaks(&spectrum, pole.reader.array(), config)
                })
                .map_err(|e| format!("localize_peaks: {e}"))?;
            let staged = QueryReport {
                spectrum,
                count,
                aoa,
            };
            let whole = pole.query(&tags, &propagation, &mut StdRng::seed_from_u64(rng_seed));
            if staged != whole {
                return Err(format!(
                    "stages differ from Pole::query at pole {i}, epoch {epoch}"
                ));
            }
            reports.push(staged);
        }
        // Two-reader fixes between neighbouring poles of a street, on the
        // CFO bins both heard.
        for (i, own) in reports.iter().enumerate() {
            if (i + 1) % POLES_PER_STREET == 0 {
                continue;
            }
            let region = campus.region(i / POLES_PER_STREET);
            for a in &own.aoa {
                let Some(b) = reports[i + 1].aoa.iter().find(|b| b.bin == a.bin) else {
                    continue;
                };
                let _ = tracer.time(Kind::Fix, 0, || {
                    try_localize_two_readers(
                        &ReaderPose::new(a.midpoint, a.baseline),
                        a.angle_rad,
                        &ReaderPose::new(b.midpoint, b.baseline),
                        b.angle_rad,
                        &region,
                    )
                });
            }
        }
    }
    Ok(StageTimes {
        synth_us: per_call_us(tracer, Kind::Synth),
        fft_us: per_call_us(tracer, Kind::Fft),
        analyze_us: per_call_us(tracer, Kind::Analyze),
        aoa_us: per_call_us(tracer, Kind::Aoa),
        fix_us: per_call_us(tracer, Kind::Fix),
    })
}

fn per_call_us(tracer: &Tracer, kind: Kind) -> f64 {
    tracer.total_ns(kind) as f64 / tracer.calls(kind).max(1) as f64 / 1e3
}
