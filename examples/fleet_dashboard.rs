//! Fleet observability dashboard: run 16 concurrent live-diagnosed calls
//! through the multiplexed sweep engine with the `domino-obs` recorder on,
//! then render each call's top causal chain and the merged
//! [`MetricsSnapshot`] as a plain-text dashboard — verdict-latency
//! percentiles, late-drop rate, RAN utilization, phase wall times,
//! pipeline-pool recycling, and the peak worker footprint.
//!
//! Each worker interleaves up to 8 calls through one shared calendar
//! queue, one `SessionArena`, and one session-keyed `PipelinePool` whose
//! pipelines are recycled across call starts and ends; early-exit triage
//! ends healthy calls at irregular instants and their slots go straight
//! to the next caller.
//!
//! The same snapshot powering this dashboard is deterministic in its `Sim`
//! section: re-running the fleet at any thread count or multiplex width
//! reproduces those lines byte-for-byte (`tests/obs_invisibility.rs`).
//!
//! ```text
//! cargo run --release --example fleet_dashboard
//! ```

use std::time::Instant;

use domino::obs::{Counter, FGauge, Gauge, HistId, MetricsSnapshot, SpanId};
use domino::scenarios::{all_cells, ScriptAction, SessionConfig};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;
use domino::{
    run_sweep, AnalysisMode, Domino, EarlyExit, ExecutionMode, Lateness, LiveConfig, ObsConfig,
    SessionSpec, SweepOptions,
};

const CALLS: usize = 16;

/// 16 calls over the Table 1 cells, every third carrying a downlink
/// cross-traffic surge and every fifth an RRC release, so the dashboard
/// shows a mixed verdict population.
fn fleet() -> Vec<SessionSpec> {
    let cells = all_cells();
    (0..CALLS)
        .map(|i| {
            let mut spec = SessionSpec::cell(
                cells[i % cells.len()].clone(),
                SessionConfig {
                    duration: SimDuration::from_secs(35),
                    seed: 4_100 + i as u64,
                    ..Default::default()
                },
            );
            if i % 3 == 1 {
                spec = spec.with_script(ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from: SimTime::from_secs(8),
                    to: SimTime::from_secs(14),
                    prb_fraction: 0.96,
                });
            }
            if i % 5 == 2 {
                spec = spec.with_script(ScriptAction::RrcRelease {
                    at: SimTime::from_secs(18),
                });
            }
            spec
        })
        .collect()
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn span_line(m: &MetricsSnapshot, id: SpanId, label: &str) {
    let s = m.span(id);
    // Wall clock is read on every call here (ObsConfig::full()), so
    // wall_ns is exact, not an extrapolation.
    let per_call = if s.calls == 0 {
        0.0
    } else {
        s.wall_ns as f64 / s.calls as f64
    };
    println!(
        "  {label:<14} {:>10} calls  {:>9.1} ms total  {:>7.0} ns/call",
        s.calls,
        s.wall_ns as f64 / 1e6,
        per_call
    );
}

fn main() {
    let specs = fleet();
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default()
        .threads(2)
        .mode(ExecutionMode::Multiplexed { width: 8 })
        .analysis(AnalysisMode::Live)
        .live(LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::StableFor(6),
        })
        // `full()` reads the wall clock on every span entry so the phase
        // table below is exact; production sweeps would use `on()`.
        .obs(ObsConfig::full());

    let wall = Instant::now();
    let report = run_sweep(&specs, &domino, &opts);
    let elapsed = wall.elapsed();
    let m = report.metrics.expect("obs was enabled");

    let sessions = m.counter(Counter::EngineSessions);
    let sim_secs = m.counter(Counter::EngineSimTimeUs) as f64 / 1e6;

    println!("== fleet dashboard: {CALLS} live calls, mux width 8, 2 workers ==");
    println!();
    println!("-- calls (top chain by windows) --");
    for o in &report.outcomes {
        let live = o.live.expect("live mode reports pipeline stats");
        let stats = o.stats.as_ref().expect("live mode analyses every call");
        // Most windows first; ties go to the alphabetically first chain.
        let top = stats
            .chain_windows
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
        let unknown = stats.unknown_windows.keys().min();
        let verdict = match (top, unknown) {
            (Some(((cause, consequence), n)), _) => format!("{cause} --> {consequence} ({n})"),
            (None, Some(consequence)) => format!("{consequence} (cause unknown)"),
            (None, None) => "healthy".to_string(),
        };
        println!(
            "  {:02} {:<22} {:>5.1}s {:>3} windows{:<13}  {verdict}",
            o.index,
            o.label,
            o.meta.duration.as_secs_f64(),
            live.windows_emitted,
            if live.early_exited {
                ", early exit"
            } else {
                ""
            },
        );
    }
    println!();
    println!("-- fleet --");
    println!("  sessions               {sessions}");
    println!(
        "  early exits            {} ({:.0}% of fleet)",
        m.counter(Counter::EngineEarlyExits),
        pct(m.counter(Counter::EngineEarlyExits), sessions)
    );
    println!("  simulated time         {sim_secs:.1} s");
    println!(
        "  wall time              {:.2} s  ({:.1} sessions/s, {:.0}x realtime)",
        elapsed.as_secs_f64(),
        sessions as f64 / elapsed.as_secs_f64(),
        sim_secs / elapsed.as_secs_f64()
    );
    println!();

    println!("-- verdict latency (sim ms past window close + lateness) --");
    let lat = m.hist(HistId::LiveVerdictLatencyMs);
    println!("  verdicts               {}", lat.count);
    println!(
        "  p50 / p95 / p99        {:.0} / {:.0} / {:.0} ms",
        m.quantile(HistId::LiveVerdictLatencyMs, 0.50),
        m.quantile(HistId::LiveVerdictLatencyMs, 0.95),
        m.quantile(HistId::LiveVerdictLatencyMs, 0.99)
    );
    let seen = m.counter(Counter::LiveRecordsSeen);
    println!(
        "  late drops             {} of {} records ({:.3}%)",
        m.counter(Counter::LiveLateDrops),
        seen,
        pct(m.counter(Counter::LiveLateDrops), seen)
    );
    println!(
        "  late deliveries        {}",
        m.counter(Counter::LiveLateDeliveries)
    );
    println!();

    println!("-- radio --");
    let (util_peak, _) = m.fgauge(FGauge::RanPrbUtilPeak);
    let util = m.hist(HistId::RanPrbUtilPct);
    let mean_util = if util.count == 0 {
        0.0
    } else {
        util.sum as f64 / util.count as f64
    };
    println!(
        "  PRB util mean/peak     {mean_util:.1}% / {:.0}%",
        util_peak * 100.0
    );
    println!(
        "  HARQ retransmissions   {}",
        m.counter(Counter::RanHarqRetx)
    );
    let q = m.hist(HistId::RanRlcQueueBytes);
    println!(
        "  RLC queue p95          {:.0} bytes",
        m.quantile(HistId::RanRlcQueueBytes, 0.95)
    );
    println!("  RLC queue max          {} bytes", q.max);
    println!(
        "  packet loss            {} of {} ({:.4}%)",
        m.counter(Counter::NetLost),
        m.counter(Counter::NetPackets),
        pct(m.counter(Counter::NetLost), m.counter(Counter::NetPackets))
    );
    println!(
        "  pacer backlog p95      {:.0} packets",
        m.quantile(HistId::RtcPacerBacklog, 0.95)
    );
    println!();

    println!("-- engine phases (wall) --");
    span_line(&m, SpanId::BeginTick, "begin_tick");
    span_line(&m, SpanId::RouteDrain, "route_drain");
    span_line(&m, SpanId::EndTick, "end_tick");
    println!();

    println!("-- pool & memory --");
    println!(
        "  pipelines              {} created, {} reused, {} evicted",
        m.counter(Counter::PoolCreated),
        m.counter(Counter::PoolReused),
        m.counter(Counter::PoolEvicted)
    );
    let (footprint, _) = m.gauge(Gauge::ArenaFootprint);
    println!(
        "  footprint peak         {footprint} retained elements/worker \
         (arena + shared route queue)"
    );
    let (in_flight, _) = m.gauge(Gauge::MuxInFlightPeak);
    println!("  in-flight peak         {in_flight} concurrent calls/worker");
    let (allocs_per_tick, _) = m.fgauge(FGauge::AllocsPerTickPeak);
    // Without the counting allocator every allocation delta reads 0.
    if m.counter(Counter::ProcAllocs) > 0 {
        println!("  allocs/tick peak       {allocs_per_tick:.4}");
    } else {
        println!("  allocs/tick peak       n/a (counting allocator not installed)");
    }
}
