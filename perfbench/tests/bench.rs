//! The benchmark's own checks: a second seed runs end to end, the replay
//! reproduces the engine's live analysis, the trace closes, and the metric
//! names match `BENCHMARK.json`.

use domino_core::Domino;
use domino_perfbench::{inputs, replay, run, Options, Report, Workload, DEFAULT_SEED};
use domino_sweep::{run_sweep, AnalysisMode, EarlyExit, LiveConfig, SweepOptions};

/// A seed other than the pinned default.
const OTHER_SEED: u64 = 7;

fn short_run(workload: Workload, seed: u64, trace: bool) -> Report {
    // A tiny timed region still runs one round of each kind.
    run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        setup_reps: 1,
    })
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn printed(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn second_seed_runs_end_to_end() {
    let names = declared("end_to_end");
    assert_eq!(names.len(), 5);
    for workload in Workload::ALL {
        let report = short_run(workload, OTHER_SEED, false);
        assert!(report.correct, "{workload:?}: {report:?}");
        assert_eq!(report.failed, 0, "{workload:?}");
        assert!(report.attempted > 0, "{workload:?}");
        assert_eq!(printed(&report), names, "{workload:?}");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload:?}: {} is {}", m.name, m.value);
        }
        assert!(
            report.verdicts >= 200,
            "{workload:?}: p95 needs 10 verdicts beyond it"
        );
        assert!(report.to_json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn default_seed_reproduces_the_pinned_digests() {
    for workload in Workload::ALL {
        let report = short_run(workload, DEFAULT_SEED, false);
        assert_eq!(
            report.digest,
            workload.pinned_digest(),
            "{workload:?}: digest {:016x}",
            report.digest
        );
        assert!(report.correct);
    }
}

#[test]
fn trace_closes_and_prints_every_layer_metric() {
    let names = declared("per_layer");
    for workload in Workload::ALL {
        let report = short_run(workload, OTHER_SEED, true);
        assert!(
            report.correct,
            "{workload:?}: traced digest must match untraced"
        );
        assert_eq!(printed(&report), names, "{workload:?}");
        let unattributed = report.metric("trace.unattributed_share").expect("printed");
        assert!(unattributed <= 0.10, "{workload:?}: {unattributed}");
        let shares: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".share") && !m.name.starts_with("trace."))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares + unattributed - 1.0).abs() < 1e-6,
            "{workload:?}: layer shares {shares} + unattributed {unattributed} must be 1"
        );
        assert!(report.metric("trace.overhead").expect("printed") > 0.0);
    }
}

#[test]
fn replay_matches_the_live_sweep() {
    let specs = inputs::fleet(OTHER_SEED);
    let bench = replay::ReplayBench::new(OTHER_SEED);
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default()
        .threads(1)
        .analysis(AnalysisMode::Live)
        .live(LiveConfig {
            lateness: inputs::fleet_lateness(OTHER_SEED, 0),
            early_exit: EarlyExit::Never,
        });
    let sweep = run_sweep(&specs, &domino, &opts);
    assert_eq!(sweep.outcomes.len(), bench.reference().len());
    let mut chaos_calls = 0;
    for ((o, r), spec) in sweep.outcomes.iter().zip(bench.reference()).zip(&specs) {
        assert_eq!(o.stats.as_ref(), Some(&r.stats), "{}", o.label);
        assert_eq!(o.live, Some(r.live), "{}", o.label);
        assert_eq!(r.live.windows_emitted, r.verdicts.len(), "{}", o.label);
        chaos_calls += usize::from(spec.chaos.is_some());
    }
    assert_eq!(
        chaos_calls,
        specs.len() / 3,
        "a third of the fleet runs under chaos"
    );
}
