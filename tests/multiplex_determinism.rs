//! The multiplexed-execution determinism contract (ISSUE 5).
//!
//! `ExecutionMode::Multiplexed { width }` advances N interleaved sessions
//! through one shared calendar queue, one shared `SessionArena`, and (live
//! mode) one session-keyed `PipelinePool` per worker. The contract: every
//! per-session output — verdicts, `ChainStats`, `LiveStats`, metadata — is
//! **byte-identical** to running each session alone, at any multiplex width
//! and any interleaving of session start offsets. Enforced the same way the
//! PR 3/4 contracts are: through the versioned plain-text
//! `ShardReport::encode` (floats as hex bit patterns), so equality is
//! byte-for-byte, not approximate.
//!
//! Interleavings are varied two ways: (a) the width itself changes which
//! sessions are co-scheduled, and (b) mixed session durations make slots
//! free at different global ticks, so refilled sessions start at staggered
//! offsets (a width-4 run over mixed durations schedules a completely
//! different offset pattern than a width-8 run). Thread count is crossed in
//! as a third axis for the live-mode case.

use domino::core::{ChainStats, Domino, StreamingAnalyzer};
use domino::scenarios::{
    all_cells, ScriptAction, SessionConfig, SessionGrid, SessionRun, SessionSpec,
};
use domino::simcore::{SimDuration, SimTime};
use domino::sweep::{
    run_shard, run_sweep, AnalysisMode, EarlyExit, ExecutionMode, LiveConfig, ShardPlan,
    SweepOptions,
};
use domino::telemetry::{Direction, Lateness};

/// A grid with deliberately mixed durations: sessions end at different
/// global ticks, so multiplexed slot refills start at staggered offsets.
fn mixed_duration_grid() -> Vec<SessionSpec> {
    SessionGrid::new()
        .cells(all_cells())
        .durations([
            SimDuration::from_secs(8),
            SimDuration::from_secs(13),
            SimDuration::from_secs(11),
        ])
        .master_seed(505)
        .build()
}

/// Encodes a whole-grid run as the versioned shard report text.
fn encode_run(specs: &[SessionSpec], opts: &SweepOptions) -> String {
    let domino = Domino::with_defaults();
    let plan = ShardPlan::new(specs.len(), 1);
    run_shard(specs, &plan.shard(0), &domino, opts).encode()
}

#[test]
fn sweep_matches_solo_engine() {
    // The independent reference: each spec run alone through the solo
    // engine (`SessionRun`, the arena's private queue) and analysed by a
    // fresh streaming analyzer. Every sweep width runs through the shared
    // mux scheduler, so this is what keeps that scheduler honest.
    let specs = mixed_duration_grid();
    let domino = Domino::with_defaults();
    let mut analyzer = StreamingAnalyzer::with_defaults();
    let solo: Vec<_> = specs
        .iter()
        .map(|spec| {
            let bundle = SessionRun::new(spec).run();
            let stats = ChainStats::compute(domino.graph(), &analyzer.analyze(&bundle));
            (bundle.meta, stats)
        })
        .collect();
    for execution in [
        ExecutionMode::PerWorker,
        ExecutionMode::Multiplexed { width: 8 },
    ] {
        let report = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                threads: 1,
                execution,
                ..Default::default()
            },
        );
        assert_eq!(report.outcomes.len(), solo.len());
        for (o, (meta, stats)) in report.outcomes.iter().zip(&solo) {
            assert_eq!(&o.meta, meta, "{execution:?}: meta of {}", o.label);
            assert_eq!(
                o.stats.as_ref(),
                Some(stats),
                "{execution:?}: stats of {}",
                o.label
            );
        }
    }
}

#[test]
fn multiplexed_widths_are_byte_identical_to_per_worker() {
    let specs = mixed_duration_grid();
    let reference = encode_run(
        &specs,
        &SweepOptions {
            threads: 1,
            execution: ExecutionMode::PerWorker,
            ..Default::default()
        },
    );
    // Width 1 multiplexed must also equal the per-worker driver (same
    // sessions, degenerate interleaving), then three real widths whose
    // co-scheduling (and therefore refill offsets over the mixed-duration
    // grid) all differ.
    for width in [1usize, 2, 4, 8] {
        let mux = encode_run(
            &specs,
            &SweepOptions {
                threads: 1,
                execution: ExecutionMode::Multiplexed { width },
                ..Default::default()
            },
        );
        assert_eq!(
            reference, mux,
            "width-{width} multiplexed report diverged from per-worker"
        );
    }
}

#[test]
fn live_mode_is_byte_identical_across_widths_and_threads() {
    // Live mode: each interleaved session is fed by a pipeline leased from
    // the worker's pool; reorder buffers, staging bundles, and analyzers
    // are recycled across call starts/ends. A lateness bound beyond any
    // in-network delay keeps the live = batch precondition intact, so any
    // divergence here is the pool's or the scheduler's fault.
    let specs = mixed_duration_grid();
    let live_opts = |execution, threads| SweepOptions {
        threads,
        execution,
        analysis: AnalysisMode::Live,
        live: LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(30)),
            early_exit: EarlyExit::Never,
        },
        ..Default::default()
    };
    let reference = encode_run(&specs, &live_opts(ExecutionMode::PerWorker, 1));
    for width in [2usize, 5, 8] {
        for threads in [1usize, 2] {
            let mux = encode_run(
                &specs,
                &live_opts(ExecutionMode::Multiplexed { width }, threads),
            );
            assert_eq!(
                reference, mux,
                "live width-{width}/threads-{threads} report diverged"
            );
        }
    }
}

#[test]
fn mixed_tick_specs_park_without_perturbing_the_lattice() {
    // Specs whose engine tick differs from the group lattice cannot be
    // interleaved; the driver parks them until the active set drains and
    // then starts each as the first session of a new lattice. Claim order
    // matters here: the first session is short, so its slot frees
    // mid-flight and the mismatched-tick spec is claimed while other
    // sessions still hold future route events in the shared queue.
    let cells = all_cells();
    let mk = |i: usize, secs: u64, tick_ms: u64| {
        SessionSpec::cell(
            cells[i % cells.len()].clone(),
            SessionConfig {
                duration: SimDuration::from_secs(secs),
                seed: 11_000 + i as u64,
                tick: SimDuration::from_millis(tick_ms),
                ..Default::default()
            },
        )
        .labelled(format!("mixed-{i}"))
    };
    // A degenerate spec whose duration is shorter than its tick: zero
    // engine ticks may run, so the driver must finalise it without ever
    // beginning one (the solo driver's `while !is_done()` guard).
    let micro = SessionSpec::cell(
        cells[0].clone(),
        SessionConfig {
            duration: SimDuration::from_micros(500),
            seed: 11_900,
            ..Default::default()
        },
    )
    .labelled("mixed-micro");
    let specs = vec![
        mk(0, 6, 1), // short: frees its slot first
        mk(1, 14, 1),
        mk(2, 12, 2), // mismatched tick, claimed mid-flight at width 2
        micro,
        mk(3, 10, 1),
        mk(4, 9, 2), // another mismatch
        mk(5, 12, 1),
    ];
    let reference = encode_run(
        &specs,
        &SweepOptions {
            threads: 1,
            ..Default::default()
        },
    );
    for width in [2usize, 4] {
        let mux = encode_run(
            &specs,
            &SweepOptions {
                threads: 1,
                execution: ExecutionMode::Multiplexed { width },
                ..Default::default()
            },
        );
        assert_eq!(reference, mux, "mixed-tick width-{width} report diverged");
    }

    // Atypical tick claimed FIRST: it must not pin the lattice for the
    // whole sweep (the driver re-fixes the group tick when the active set
    // drains), and the output stays byte-identical either way.
    let mut atypical_first = specs;
    atypical_first.swap(0, 2); // the 2 ms-tick spec leads the claim order
    let reference = encode_run(
        &atypical_first,
        &SweepOptions {
            threads: 1,
            ..Default::default()
        },
    );
    let mux = encode_run(
        &atypical_first,
        &SweepOptions {
            threads: 1,
            execution: ExecutionMode::Multiplexed { width: 3 },
            ..Default::default()
        },
    );
    assert_eq!(reference, mux, "atypical-first-tick report diverged");

    // A degenerate spec leading a lattice fixes its tick yet leaves nothing
    // running, so the mismatched spec claimed right after it is parked with
    // an empty active set — it must still run, at every width.
    let mut degenerate_first = atypical_first;
    degenerate_first[..4].rotate_right(1); // micro, then the 2 ms spec
    let run = |execution| {
        encode_run(
            &degenerate_first,
            &SweepOptions {
                threads: 1,
                execution,
                ..Default::default()
            },
        )
    };
    assert_eq!(
        run(ExecutionMode::PerWorker),
        run(ExecutionMode::Multiplexed { width: 3 }),
        "degenerate-first report diverged"
    );
}

#[test]
fn early_exit_refills_keep_staggered_sessions_identical() {
    // Early-exit triage is the operator configuration: sessions abort as
    // soon as their verdict is in, so multiplexed slots refill at highly
    // irregular offsets (abort ticks differ per session). Each session's
    // truncated output must still match its solo run exactly.
    let mut specs = Vec::new();
    for (i, cell) in all_cells().into_iter().cycle().take(10).enumerate() {
        let mut spec = SessionSpec::cell(
            cell,
            SessionConfig {
                duration: SimDuration::from_secs(20),
                seed: 9_000 + i as u64,
                ..Default::default()
            },
        );
        if i % 3 == 0 {
            spec = spec.with_script(ScriptAction::CrossTraffic {
                dir: Direction::Downlink,
                from: SimTime::from_secs(5),
                to: SimTime::from_secs(9),
                prb_fraction: 0.95,
            });
        }
        specs.push(spec.labelled(format!("triage-{i}")));
    }
    let triage = |execution| SweepOptions {
        threads: 1,
        execution,
        analysis: AnalysisMode::Live,
        live: LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::StableFor(3),
        },
        ..Default::default()
    };
    let reference = encode_run(&specs, &triage(ExecutionMode::PerWorker));
    for width in [3usize, 7] {
        let mux = encode_run(&specs, &triage(ExecutionMode::Multiplexed { width }));
        assert_eq!(
            reference, mux,
            "early-exit width-{width} report diverged from per-worker"
        );
    }
}
