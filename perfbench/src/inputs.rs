//! Workload inputs, generated from the master seed alone. The program under
//! test only ever sees the specs built here.
//!
//! Call lengths, impairment instants, chaos plans and telemetry floors are
//! all drawn from the seed. The draws are kept small where they would
//! change the amount of work: the verdict lags differ a little from seed
//! to seed, while each cell's share of the simulated time stays fixed (see
//! [`call_length`]).

use abr_sim::AbrConfig;
use ran_sim::ue::traffic_mix;
use scenarios::{
    all_cells, amarisoft, mosolabs, AxisPatch, ScriptAction, SessionConfig, SessionSpec,
};
use simcore::{derive_seed, SimDuration, SimTime};
use telemetry::{Direction, Lateness, TapChaosSpec, TapFault, TapStream};

/// Calls per Table-1 cell in `rtc-table1`.
pub const RTC_CALLS_PER_CELL: usize = 4;
/// Nominal call length in `rtc-table1`.
pub const RTC_NOMINAL_SECS: u64 = 30;
/// Sessions per private cell in `abr-contended`.
pub const ABR_SESSIONS_PER_CELL: usize = 6;
/// Nominal session length in `abr-contended`.
pub const ABR_NOMINAL_SECS: u64 = 20;
/// Scripted traffic UEs sharing each `abr-contended` cell.
pub const ABR_TRAFFIC_UES: usize = 32;
/// Calls in the `live-replay` fleet.
pub const FLEET_CALLS: usize = 24;
/// Nominal call length in the `live-replay` fleet.
pub const FLEET_NOMINAL_SECS: u64 = 13;

/// Salts that keep the seed's independent draws apart.
const SALT_LENGTH: u64 = 0x4c45_4e47;
const SALT_EVENT: u64 = 0x4556_4e54;
const SALT_CHAOS: u64 = 0x4348_4153;
const SALT_FLOOR: u64 = 0x464c_4f52;

fn draw(seed: u64, salt: u64, i: usize, n: u64) -> u64 {
    derive_seed(seed ^ salt, i as u64) % n
}

/// Length of call `i` around `nominal` seconds. Calls come in pairs
/// `nominal ± x`, with `x` drawn per pair in whole milliseconds up to
/// 250 ms. A pair's total is fixed, so each cell's share of the simulated
/// time (and the memory a call needs) is the same for every seed, while
/// the millisecond offsets shift every post-hoc verdict lag a little.
fn call_length(seed: u64, i: usize, nominal: u64) -> SimDuration {
    let nominal = SimDuration::from_secs(nominal);
    let x = SimDuration::from_millis(draw(seed, SALT_LENGTH, i / 2, 251));
    if i.is_multiple_of(2) {
        nominal + x
    } else {
        nominal - x
    }
}

/// An instant drawn uniformly (in whole seconds) from `[lo, max(lo, hi)]`.
fn instant_in(seed: u64, salt: u64, i: usize, lo: u64, hi: u64) -> SimTime {
    SimTime::from_secs(lo + draw(seed, salt, i, hi.saturating_sub(lo) + 1))
}

fn call(cell: ran_sim::CellConfig, seed: u64, i: usize, duration: SimDuration) -> SessionSpec {
    let label = format!("{} / {:.1}s / call{i}", cell.name, duration.as_secs_f64());
    SessionSpec::cell(
        cell,
        SessionConfig {
            duration,
            seed: derive_seed(seed, i as u64),
            ..Default::default()
        },
    )
    .labelled(label)
}

/// `rtc-table1`: RTC calls over the four Table-1 cells.
pub fn rtc_table1(seed: u64) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for cell in all_cells() {
        for _ in 0..RTC_CALLS_PER_CELL {
            let i = specs.len();
            specs.push(call(
                cell.clone(),
                seed,
                i,
                call_length(seed, i, RTC_NOMINAL_SECS),
            ));
        }
    }
    specs
}

/// `abr-contended`: ABR/QUIC sessions on the two private cells, each
/// shared with [`ABR_TRAFFIC_UES`] scripted UEs and hit by one downlink
/// cross-traffic surge.
pub fn abr_contended(seed: u64) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for cell in [amarisoft(), mosolabs()] {
        for _ in 0..ABR_SESSIONS_PER_CELL {
            let i = specs.len();
            let duration = call_length(seed, i, ABR_NOMINAL_SECS);
            let from = instant_in(seed, SALT_EVENT, i, 3, duration.as_micros() / 1_000_000 - 6);
            let mut spec = call(cell.clone(), seed, i, duration)
                .abr(AbrConfig::default())
                .with_script(ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from,
                    to: from + SimDuration::from_secs(5),
                    prb_fraction: 0.95,
                });
            AxisPatch::TrafficUes(traffic_mix(ABR_TRAFFIC_UES)).apply(&mut spec);
            specs.push(spec);
        }
    }
    specs
}

/// The chaos grid's lossy telemetry plan (`examples/sharded_sweep.rs`):
/// dropped gNB records, duplicated DCI and
/// delayed UE-side app stats.
fn lossy(seed: u64) -> TapChaosSpec {
    TapChaosSpec::new(seed)
        .fault(TapFault::Drop {
            stream: TapStream::Gnb,
            pct: 20,
        })
        .fault(TapFault::Duplicate {
            stream: TapStream::Dci,
            pct: 10,
        })
        .fault(TapFault::Delay {
            stream: TapStream::AppLocal,
            pct: 15,
            max_delay: SimDuration::from_millis(800),
        })
}

/// The chaos grid's dark telemetry plan: a wired-side app-stats blackout and a
/// gNB log skewed behind real time.
fn dark(seed: u64, from: SimTime) -> TapChaosSpec {
    TapChaosSpec::new(seed)
        .fault(TapFault::Blackout {
            stream: TapStream::AppRemote,
            from,
            to: from + SimDuration::from_secs(3),
        })
        .fault(TapFault::SkewBehind {
            stream: TapStream::Gnb,
            skew: SimDuration::from_millis(350),
        })
}

/// The adaptive watermark lateness of a `live-replay` call on cell `cell`.
/// Each cell's telemetry path has its own minimum collection delay, drawn
/// from the seed in whole milliseconds within 250 ± 5 ms; it is the
/// bound's floor.
pub fn fleet_lateness(seed: u64, cell: usize) -> Lateness {
    Lateness::Adaptive {
        target_quantile: 0.99,
        floor: SimDuration::from_millis(245 + draw(seed, SALT_FLOOR, cell, 11)),
        ceil: SimDuration::from_secs(5),
    }
}

/// `live-replay`'s fleet, in the `fleet_dashboard` shape: calls over the
/// Table-1 cells, every third with a downlink cross-traffic surge, every
/// fifth with an RRC release, and a third of them behind a lossy or dark
/// telemetry tap. Every call carries its cell's [`fleet_lateness`].
pub fn fleet(seed: u64) -> Vec<SessionSpec> {
    let cells = all_cells();
    (0..FLEET_CALLS)
        .map(|i| {
            let duration = call_length(seed, i, FLEET_NOMINAL_SECS);
            let last = duration.as_micros() / 1_000_000 - 8;
            let cell = i % cells.len();
            let mut spec = call(cells[cell].clone(), seed, i, duration)
                .with_lateness(fleet_lateness(seed, cell));
            if i % 3 == 1 {
                let from = instant_in(seed, SALT_EVENT, i, 5, last);
                spec = spec.with_script(ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from,
                    to: from + SimDuration::from_secs(6),
                    prb_fraction: 0.96,
                });
            }
            if i % 5 == 2 {
                spec = spec.with_script(ScriptAction::RrcRelease {
                    at: instant_in(seed, SALT_EVENT ^ 1, i, 5, last),
                });
            }
            if i % 3 == 2 {
                let chaos_seed = derive_seed(seed ^ SALT_CHAOS, i as u64);
                spec = spec.with_chaos(if (i / 3) % 2 == 0 {
                    lossy(chaos_seed)
                } else {
                    dark(chaos_seed, instant_in(seed, SALT_CHAOS, i, 4, last))
                });
            }
            spec
        })
        .collect()
}
