//! End-to-end and per-layer benchmark of the Domino workspace.
//!
//! Three workloads, each driven from one process on one worker thread:
//!
//! * `rtc-table1` — RTC calls over the four Table-1 cells, simulated,
//!   analysed post hoc (streaming, W = 5 s, Δt = 0.5 s) and encoded into a
//!   `ShardReport` by the per-worker sweep engine.
//! * `abr-contended` — ABR sessions on contended private cells, through the
//!   multiplexed sweep engine (width 8).
//! * `live-replay` — recorded tap streams of a fleet of calls replayed
//!   through `ChaosTap` into pooled `LivePipeline`s.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer ones (see [`trace`]). See
//! `README.md` beside this crate for the metric definitions.

mod calib;
pub mod inputs;
pub mod replay;
mod sweep;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The seed whose reference digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RTC calls over the Table-1 cells, per-worker sweep.
    RtcTable1,
    /// ABR sessions on contended private cells, multiplexed sweep.
    AbrContended,
    /// Live diagnosis of recorded tap streams.
    LiveReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::RtcTable1,
        Workload::AbrContended,
        Workload::LiveReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RtcTable1 => "rtc-table1",
            Workload::AbrContended => "abr-contended",
            Workload::LiveReplay => "live-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference digest of [`DEFAULT_SEED`]'s inputs.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::RtcTable1 => 0xa758_4da2_151d_8c7c,
            Workload::AbrContended => 0x2591_7950_b061_244c,
            Workload::LiveReplay => 0x15df_b442_2cd4_cec1,
        }
    }

    fn setup(self, seed: u64) -> Box<dyn Bench> {
        match self {
            Workload::RtcTable1 => Box::new(sweep::SweepBench::rtc_table1(seed)),
            Workload::AbrContended => Box::new(sweep::SweepBench::abr_contended(seed)),
            Workload::LiveReplay => Box::new(replay::ReplayBench::new(seed)),
        }
    }
}

/// CPU time consumed by this process so far, all threads included.
///
/// The throughput and set-up metrics are read from this clock rather than
/// the wall clock: on a shared host the wall clock also counts the time the
/// process sat runnable while other work held its core, and the guest's
/// steal time, neither of which is the program's cost. They are then
/// calibrated by the reference kernel in [`calib`].
#[cfg(target_os = "linux")]
pub(crate) fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the call only fills it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always available");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by this process so far (wall time since the first
/// call where no process CPU-time clock is wired up).
#[cfg(not(target_os = "linux"))]
pub(crate) fn cpu_time() -> Duration {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Wall and CPU time of a stretch of work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Times {
    /// Wall-clock time.
    pub wall: Duration,
    /// Process CPU time ([`cpu_time`]).
    pub cpu: Duration,
}

/// Reads both clocks at the start of a stretch of work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_time(),
        }
    }

    /// Both times since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Times {
        Times {
            cpu: cpu_time().saturating_sub(self.cpu),
            wall: self.wall.elapsed(),
        }
    }
}

/// One timed round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Round {
    /// Time of the round's work, checks excluded.
    pub time: Times,
    /// Sessions whose results differed from the reference.
    pub failed: u64,
}

/// A workload, set up and warmed, as the measurement loop sees it.
pub(crate) trait Bench {
    /// Sessions one round runs.
    fn sessions(&self) -> u64;
    /// Simulated call-seconds one round completes.
    fn sim_secs(&self) -> f64;
    /// The warm-up round's digest, which every round must reproduce.
    fn digest(&self) -> u64;
    /// Simulated lag of every verdict of a round, in ms.
    fn verdict_lags_ms(&self) -> &[f64];
    /// Late-dropped records and the peak retained records of a round.
    fn live_counts(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Per-verdict host cost of the traced rounds, in trace-clock ticks.
    fn verdict_ticks(&self) -> &[u64] {
        &[]
    }
    /// Runs one round, traced or not.
    fn round(&mut self, traced: bool) -> Round;
}

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Master seed of the inputs.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set-up repetitions (untraced runs).
    pub setup_reps: usize,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Sessions attempted in the timed region.
    pub attempted: u64,
    /// Sessions that failed: panicked, or produced results that differ
    /// from the warm-up's.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// The reference digest of this run's inputs.
    pub digest: u64,
    /// Verdicts behind the verdict-lag percentiles.
    pub verdicts: usize,
    /// Timed rounds run.
    pub rounds: u64,
    /// Simulated call-seconds of the untraced rounds.
    pub sim_secs: f64,
    /// Process CPU time of the untraced rounds, in seconds.
    pub cpu_secs: f64,
    /// How much slower than nominal the host ran the reference kernel
    /// during the untraced rounds ([`calib::Calibration::slowdown`]).
    pub slowdown: f64,
    /// Wall time of the untraced rounds, in seconds.
    pub wall_secs: f64,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a, 64-bit.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Nearest-rank percentile `q` of `values` (0 when empty).
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Totals of the measurement loop; `wall`, `cpu` and `sim_secs` are
/// indexed by round kind (0 untraced, 1 traced).
struct Loop {
    attempted: u64,
    failed: u64,
    rounds: u64,
    panicked: bool,
    wall: [Duration; 2],
    cpu: [Duration; 2],
    sim_secs: [f64; 2],
    calib: calib::Calibration,
}

/// Runs the measurement rounds until `seconds` have passed (at least one
/// of each kind), alternating untraced and traced rounds when `traced`.
/// Each untraced round is followed by a sample of the reference kernel.
/// A round that panics fails every session it ran and ends the loop.
fn measure(bench: &mut dyn Bench, seconds: f64, traced: bool) -> Loop {
    let mut l = Loop {
        attempted: 0,
        failed: 0,
        rounds: 0,
        panicked: false,
        wall: [Duration::ZERO; 2],
        cpu: [Duration::ZERO; 2],
        sim_secs: [0.0; 2],
        calib: calib::Calibration::default(),
    };
    let start = Instant::now();
    let kinds = if traced { 2 } else { 1 };
    while l.rounds < kinds || start.elapsed().as_secs_f64() < seconds {
        let kind = (l.rounds % kinds) as usize;
        l.attempted += bench.sessions();
        l.rounds += 1;
        match catch_unwind(AssertUnwindSafe(|| bench.round(kind == 1))) {
            Ok(r) => {
                l.failed += r.failed;
                l.wall[kind] += r.time.wall;
                l.cpu[kind] += r.time.cpu;
                l.sim_secs[kind] += bench.sim_secs();
                if kind == 0 {
                    l.calib.sample(r.time.cpu);
                }
            }
            Err(_) => {
                l.failed += bench.sessions();
                l.panicked = true;
                break;
            }
        }
    }
    l
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let reps = if opts.trace {
        1
    } else {
        opts.setup_reps.max(1)
    };
    let mut setup_times = Vec::with_capacity(reps);
    let mut digests = Vec::with_capacity(reps);
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..reps {
        // The previous set-up is dropped first, so peak memory sees one.
        drop(bench.take());
        let clock = Stopwatch::start();
        let b = opts.workload.setup(opts.seed);
        setup_times.push(clock.elapsed().cpu.as_secs_f64());
        digests.push(b.digest());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let digest = digests[0];
    let mut correct = digests.iter().all(|&d| d == digest);
    if opts.seed == DEFAULT_SEED && digest != opts.workload.pinned_digest() {
        correct = false;
    }

    trace::take();
    let l = measure(bench.as_mut(), opts.seconds, opts.trace);
    correct &= !l.panicked && l.failed == 0;
    let slowdown = l.calib.slowdown();
    let lags = bench.verdict_lags_ms();
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if !opts.trace {
        put(
            "sim_s_per_s",
            l.sim_secs[0] / l.cpu[0].as_secs_f64() * slowdown,
            "sim_s/s",
        );
        put("setup_s", median(setup_times) / slowdown, "s");
        put("peak_rss_mb", peak_rss_mb(), "MiB");
        put("verdict_lag_p50_ms", percentile(lags, 0.50), "ms");
        put("verdict_lag_p95_ms", percentile(lags, 0.95), "ms");
    } else {
        let t = trace::take();
        let traced_ns = l.wall[1].as_nanos() as f64;
        let ns_per_tick = traced_ns / t.round_ticks.max(1) as f64;
        let sim = l.sim_secs[1];
        let round_ticks = t.round_ticks.max(1) as f64;
        for layer in trace::Layer::ALL {
            let ticks = t.self_ticks[layer as usize] as f64;
            let calls = t.calls[layer as usize] as f64;
            let name = layer.name();
            put(
                &format!("{name}.self_ns_per_sim_s"),
                ticks * ns_per_tick / sim,
                "ns/sim_s",
            );
            put(&format!("{name}.share"), ticks / round_ticks, "share");
            put(&format!("{name}.calls_per_sim_s"), calls / sim, "1/sim_s");
        }
        let verdict_us: Vec<f64> = bench
            .verdict_ticks()
            .iter()
            .map(|&t| t as f64 * ns_per_tick / 1_000.0)
            .collect();
        put("live.verdict_us_p50", percentile(&verdict_us, 0.50), "us");
        put("live.verdict_us_p95", percentile(&verdict_us, 0.95), "us");
        let (late_drops, peak_retained) = bench.live_counts();
        put("live.late_drops", late_drops as f64, "count");
        put("live.peak_retained", peak_retained as f64, "records");
        put(
            "trace.unattributed_share",
            t.unattributed_ticks as f64 / round_ticks,
            "share",
        );
        put(
            "trace.overhead",
            (l.wall[1].as_secs_f64() / l.sim_secs[1]) / (l.wall[0].as_secs_f64() / l.sim_secs[0]),
            "ratio",
        );
    }
    Report {
        correct,
        attempted: l.attempted,
        failed: l.failed,
        metrics,
        digest,
        verdicts: lags.len(),
        rounds: l.rounds,
        sim_secs: l.sim_secs[0],
        cpu_secs: l.cpu[0].as_secs_f64(),
        slowdown,
        wall_secs: l.wall[0].as_secs_f64(),
    }
}
