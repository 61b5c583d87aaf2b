//! The sweep workloads, `rtc-table1` and `abr-contended`: simulate,
//! analyse (streaming, post hoc) and encode every session into a
//! `ShardReport`, on one worker thread.
//!
//! Untraced rounds call the program's own entry point, `run_sweep`. Traced
//! rounds replay the same engine loop from outside — the per-worker loop
//! or the multiplexed one — through the layers' public functions, marking
//! each call (see [`crate::trace`]). Both must produce the same report
//! bytes, which the reference digest checks.

use domino_core::{abr_graph, ChainStats, Domino, DominoConfig, StreamingAnalyzer};
use domino_sweep::{
    run_sweep, AnalysisMode, ExecutionMode, SessionOutcome, ShardReport, SpecOutcome, SweepOptions,
    SweepReport,
};
use scenarios::{RouteEvent, SessionArena, SessionSpec, SessionState, SharedRouteQueue};
use simcore::{EventQueue, SimDuration, SimTime};
use telemetry::NullTap;

use crate::trace::{self, Layer};
use crate::{fnv1a, inputs, Bench, Round, Stopwatch};

/// One sweep workload, set up and warmed.
pub struct SweepBench {
    specs: Vec<SessionSpec>,
    domino: Domino,
    opts: SweepOptions,
    width: usize,
    reference: Vec<SpecOutcome>,
    digest: u64,
    lags_ms: Vec<f64>,
    sim_secs: f64,
}

impl SweepBench {
    /// `rtc-table1`: the four Table-1 cells, per-worker execution.
    pub fn rtc_table1(seed: u64) -> Self {
        Self::new(
            inputs::rtc_table1(seed),
            Domino::with_defaults(),
            ExecutionMode::PerWorker,
        )
    }

    /// `abr-contended`: ABR on contended private cells, multiplexed 8 wide.
    pub fn abr_contended(seed: u64) -> Self {
        Self::new(
            inputs::abr_contended(seed),
            Domino::new(abr_graph(), DominoConfig::default()),
            ExecutionMode::Multiplexed { width: 8 },
        )
    }

    fn new(specs: Vec<SessionSpec>, domino: Domino, execution: ExecutionMode) -> Self {
        let width = match execution {
            ExecutionMode::PerWorker => 1,
            ExecutionMode::Multiplexed { width } => width,
        };
        let tick = specs[0].cfg.tick;
        assert!(
            specs.iter().all(|s| s.cfg.tick == tick),
            "the traced multiplexed loop steps one tick lattice"
        );
        let opts = SweepOptions::default()
            .threads(1)
            .mode(execution)
            .analysis(AnalysisMode::Streaming);
        // The warm-up pass keeps its analyses once, to read the verdict
        // schedule; the timed rounds do not.
        let warm = run_sweep(&specs, &domino, &opts.clone().keep_analyses(true));
        let window = domino.config().window;
        let mut lags_ms = Vec::new();
        for o in &warm.outcomes {
            let analysis = o.analysis.as_ref().expect("keep_analyses set");
            // Post-hoc analysis hands every window's verdict over when the
            // call ends.
            let verdict_at = SimTime::ZERO + o.meta.duration;
            for w in &analysis.windows {
                lags_ms.push(lag_ms(verdict_at, w.start + window));
            }
        }
        let report = ShardReport::from_sweep(&warm);
        let digest = fnv1a(report.encode().as_bytes());
        let sim_secs = specs.iter().map(|s| s.cfg.duration.as_secs_f64()).sum();
        SweepBench {
            specs,
            domino,
            opts,
            width,
            reference: report.outcomes,
            digest,
            lags_ms,
            sim_secs,
        }
    }

    /// Counts sessions whose outcome differs from the warm-up's; a round
    /// whose bytes differ while every outcome matches counts once.
    fn failures(&self, report: &ShardReport, text: &str) -> u64 {
        let mut failed = report
            .outcomes
            .iter()
            .zip(&self.reference)
            .filter(|(a, b)| a != b)
            .count() as u64;
        failed += self.reference.len().abs_diff(report.outcomes.len()) as u64;
        if failed == 0 && fnv1a(text.as_bytes()) != self.digest {
            failed = 1;
        }
        failed
    }

    fn untraced(&mut self) -> Round {
        let clock = Stopwatch::start();
        let report = ShardReport::from_sweep(&run_sweep(&self.specs, &self.domino, &self.opts));
        let text = report.encode();
        let time = clock.elapsed();
        Round {
            time,
            failed: self.failures(&report, &text),
        }
    }

    fn traced(&mut self) -> Round {
        let clock = Stopwatch::start();
        trace::begin();
        let outcomes = if self.width > 1 {
            self.traced_multiplexed()
        } else {
            self.traced_per_worker()
        };
        trace::switch(Layer::SweepReport);
        let report = ShardReport::from_sweep(&SweepReport {
            outcomes,
            aggregate: ChainStats::default(),
            metrics: None,
        });
        let text = report.encode();
        trace::exit();
        trace::end();
        let time = clock.elapsed();
        Round {
            time,
            failed: self.failures(&report, &text),
        }
    }

    fn analyzer(&self) -> StreamingAnalyzer {
        StreamingAnalyzer::new(self.domino.graph().clone(), self.domino.config().clone())
            .expect("the paper's window configuration streams")
    }

    /// The per-worker loop: one session at a time through a private
    /// calendar queue, then the streaming pass.
    fn traced_per_worker(&self) -> Vec<SessionOutcome> {
        let mut arena = SessionArena::new();
        let mut queue: EventQueue<RouteEvent> = EventQueue::calendar();
        let mut analyzer = self.analyzer();
        let mut null = NullTap;
        let mut outcomes = Vec::with_capacity(self.specs.len());
        for (index, spec) in self.specs.iter().enumerate() {
            queue.clear();
            let mut state = spec.start_in(false, &mut arena);
            while !state.is_done() {
                trace::switch(Layer::AppEmit);
                state.emit_tick(&mut null, arena.scratch_mut(), &mut queue);
                trace::switch(Layer::RanAccess);
                state.collect_access(arena.scratch_mut(), &mut queue);
                loop {
                    trace::switch(Layer::SimcoreQueue);
                    let Some(ev) = queue.pop_due(state.now()) else {
                        break;
                    };
                    trace::switch(route_layer(ev.event));
                    state.route_event(ev.at, ev.event, &mut null);
                }
                trace::switch(Layer::TelemetryTick);
                if state.end_tick(&mut null, arena.scratch_mut()) {
                    break;
                }
            }
            outcomes.push(self.finish(state, index, &mut arena, &mut analyzer));
        }
        outcomes
    }

    /// The multiplexed loop: up to `width` sessions stepped on one global
    /// tick lattice through one shared tagged queue; a finished session's
    /// slot is refilled at the current tick.
    fn traced_multiplexed(&self) -> Vec<SessionOutcome> {
        struct Active {
            index: usize,
            state: SessionState,
            offset: SimDuration,
        }
        let mut arena = SessionArena::new();
        let mut shared = SharedRouteQueue::new();
        let mut analyzer = self.analyzer();
        let mut null = NullTap;
        let tick = self.specs[0].cfg.tick;
        let mut slots: Vec<Option<SessionOutcome>> = Vec::new();
        slots.resize_with(self.specs.len(), || None);
        let mut active: Vec<Active> = Vec::with_capacity(self.width);
        let mut next = 0;
        let mut global = SimTime::ZERO;
        loop {
            while active.len() < self.width && next < self.specs.len() {
                let state = self.specs[next].start_in(false, &mut arena);
                assert!(!state.is_done(), "every spec runs at least one tick");
                active.push(Active {
                    index: next,
                    state,
                    offset: global - SimTime::ZERO,
                });
                next += 1;
            }
            if active.is_empty() {
                break;
            }
            global += tick;
            for s in active.iter_mut() {
                let mut sink = shared.sink(s.index as u64, s.offset);
                trace::switch(Layer::AppEmit);
                s.state.emit_tick(&mut null, arena.scratch_mut(), &mut sink);
                trace::switch(Layer::RanAccess);
                s.state.collect_access(arena.scratch_mut(), &mut sink);
            }
            loop {
                trace::switch(Layer::SimcoreQueue);
                let Some((at, tag, ev)) = shared.pop_due(global) else {
                    break;
                };
                // Events of a finished session are stale and dropped.
                let Some(s) = active.iter_mut().find(|s| s.index as u64 == tag) else {
                    continue;
                };
                trace::switch(route_layer(ev));
                s.state.route_event(at - s.offset, ev, &mut null);
            }
            let (mut i, mut open) = (0, false);
            while i < active.len() {
                trace::switch(Layer::TelemetryTick);
                open = true;
                if active[i].state.end_tick(&mut null, arena.scratch_mut()) {
                    let s = active.swap_remove(i);
                    let o = self.finish(s.state, s.index, &mut arena, &mut analyzer);
                    slots[s.index] = Some(o);
                    open = false;
                } else {
                    i += 1;
                }
            }
            if open {
                trace::exit();
            }
        }
        slots
            .into_iter()
            .map(|o| o.expect("every spec completed"))
            .collect()
    }

    /// Finalises a session and runs the post-hoc analysis; leaves the span
    /// stack empty.
    fn finish(
        &self,
        state: SessionState,
        index: usize,
        arena: &mut SessionArena,
        analyzer: &mut StreamingAnalyzer,
    ) -> SessionOutcome {
        trace::switch(Layer::TelemetryFinish);
        let bundle = state.finish(&mut NullTap, arena);
        trace::switch(Layer::CoreAnalyze);
        let analysis = analyzer.analyze(&bundle);
        trace::switch(Layer::CoreStats);
        let stats = ChainStats::compute(self.domino.graph(), &analysis);
        trace::exit();
        let meta = bundle.meta.clone();
        arena.recycle(bundle);
        SessionOutcome {
            index,
            label: self.specs[index].label.clone(),
            meta,
            bundle: None,
            analysis: None,
            stats: Some(stats),
            live: None,
        }
    }
}

fn route_layer(ev: RouteEvent) -> Layer {
    match ev {
        RouteEvent::EnqueueDownlink(_) => Layer::RanEnqueue,
        RouteEvent::ArriveAtPeer(_) | RouteEvent::ArriveAtUe(_) => Layer::AppDeliver,
    }
}

/// Simulated milliseconds from `due` to `at`.
pub(crate) fn lag_ms(at: SimTime, due: SimTime) -> f64 {
    at.saturating_since(due).as_micros() as f64 / 1_000.0
}

impl Bench for SweepBench {
    fn sessions(&self) -> u64 {
        self.specs.len() as u64
    }

    fn sim_secs(&self) -> f64 {
        self.sim_secs
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn verdict_lags_ms(&self) -> &[f64] {
        &self.lags_ms
    }

    fn round(&mut self, traced: bool) -> Round {
        if traced {
            self.traced()
        } else {
            self.untraced()
        }
    }
}
