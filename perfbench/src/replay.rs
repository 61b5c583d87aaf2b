//! The `live-replay` workload: in-call diagnosis of a recorded fleet.
//!
//! Set-up simulates the fleet once with a recording [`LiveTap`], which
//! captures the engine's exact tap-call stream (`on_tick` calls included).
//! Each timed round replays every call's stream, one call after another,
//! through `ChaosTap` (for the calls that carry a chaos plan) into a
//! `LivePipeline` leased from one `PipelinePool`. The simulator does not
//! run in the timed region, so the live layers take nearly all of it.

use domino_core::{ChainStats, Domino, DominoConfig};
use domino_live::{ChaosState, ChaosTap, LiveConfig, LivePipeline, LiveStats, LiveVerdict};
use domino_live::{EarlyExit, PipelinePool};
use domino_sweep::{SessionOutcome, ShardReport, SweepReport};
use scenarios::{SessionArena, SessionSpec};
use simcore::SimTime;
use telemetry::{
    AppStatsRecord, DciRecord, GnbLogRecord, LiveTap, PacketRecord, PlaybackStatsRecord,
    SessionMeta,
};

use crate::sweep::lag_ms;
use crate::trace::{self, Layer, TimedTap};
use crate::{fnv1a, inputs, Bench, Round, Stopwatch};

/// One tap call of a recorded stream; its payload sits in the matching
/// per-kind vector of the [`Recording`], in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    AppLocal,
    AppRemote,
    Playback,
    Dci,
    Gnb,
    Sent,
    Delivered,
    Tick,
    Finish,
}

/// One call's recorded tap stream, stored by kind to keep it compact.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    ops: Vec<Op>,
    app_local: Vec<AppStatsRecord>,
    app_remote: Vec<AppStatsRecord>,
    playback: Vec<PlaybackStatsRecord>,
    dci: Vec<DciRecord>,
    gnb: Vec<GnbLogRecord>,
    sent: Vec<(u64, PacketRecord)>,
    delivered: Vec<(u64, SimTime)>,
    clock: Vec<SimTime>,
}

impl LiveTap for Recording {
    fn on_app_local(&mut self, r: &AppStatsRecord) {
        self.ops.push(Op::AppLocal);
        self.app_local.push(r.clone());
    }
    fn on_app_remote(&mut self, r: &AppStatsRecord) {
        self.ops.push(Op::AppRemote);
        self.app_remote.push(r.clone());
    }
    fn on_playback(&mut self, r: &PlaybackStatsRecord) {
        self.ops.push(Op::Playback);
        self.playback.push(r.clone());
    }
    fn on_dci(&mut self, r: &DciRecord) {
        self.ops.push(Op::Dci);
        self.dci.push(r.clone());
    }
    fn on_gnb(&mut self, r: &GnbLogRecord) {
        self.ops.push(Op::Gnb);
        self.gnb.push(r.clone());
    }
    fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
        self.ops.push(Op::Sent);
        self.sent.push((id, r.clone()));
    }
    fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
        self.ops.push(Op::Delivered);
        self.delivered.push((id, at));
    }
    fn on_tick(&mut self, now: SimTime) {
        self.ops.push(Op::Tick);
        self.clock.push(now);
    }
    fn on_finish(&mut self, now: SimTime) {
        self.ops.push(Op::Finish);
        self.clock.push(now);
    }
}

/// Read positions into a [`Recording`]'s per-kind vectors.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    op: usize,
    app_local: usize,
    app_remote: usize,
    playback: usize,
    dci: usize,
    gnb: usize,
    sent: usize,
    delivered: usize,
    clock: usize,
}

fn take(i: &mut usize) -> usize {
    *i += 1;
    *i - 1
}

/// Replays the record call at the cursor (any op but a clock op) into `tap`.
fn replay_record(rec: &Recording, cur: &mut Cursor, op: Op, tap: &mut dyn LiveTap) {
    match op {
        Op::AppLocal => tap.on_app_local(&rec.app_local[take(&mut cur.app_local)]),
        Op::AppRemote => tap.on_app_remote(&rec.app_remote[take(&mut cur.app_remote)]),
        Op::Playback => tap.on_playback(&rec.playback[take(&mut cur.playback)]),
        Op::Dci => tap.on_dci(&rec.dci[take(&mut cur.dci)]),
        Op::Gnb => tap.on_gnb(&rec.gnb[take(&mut cur.gnb)]),
        Op::Sent => {
            let (id, r) = &rec.sent[take(&mut cur.sent)];
            tap.on_packet_sent(*id, r);
        }
        Op::Delivered => {
            let (id, at) = rec.delivered[take(&mut cur.delivered)];
            tap.on_packet_delivered(id, at);
        }
        Op::Tick | Op::Finish => unreachable!("clock ops are replayed by the caller"),
    }
}

/// One recorded call and the inputs its replay needs.
pub(crate) struct Call {
    /// The spec the call was simulated from.
    pub spec: SessionSpec,
    /// The engine's tap stream.
    pub recording: Recording,
    /// The simulated call's metadata (its duration normalises the stats).
    pub meta: SessionMeta,
}

/// What a replayed call must reproduce every round.
#[derive(Debug, Clone, PartialEq)]
pub struct CallResult {
    /// Chain statistics of the call's analysis.
    pub stats: ChainStats,
    /// The pipeline's counters.
    pub live: LiveStats,
    /// Every verdict, in emission order.
    pub verdicts: Vec<LiveVerdict>,
}

/// Records `specs` through the engine, one call after another in one arena.
pub(crate) fn record(specs: &[SessionSpec]) -> Vec<Call> {
    let mut arena = SessionArena::new();
    specs
        .iter()
        .map(|spec| {
            let mut recording = Recording::default();
            let bundle = spec.run_with_tap_in(&mut recording, &mut arena);
            let meta = bundle.meta.clone();
            arena.recycle(bundle);
            Call {
                spec: spec.clone(),
                recording,
                meta,
            }
        })
        .collect()
}

/// The live configuration of a replayed call: its spec's lateness, and no
/// early exit, so every call is diagnosed to its end.
pub(crate) fn live_config(spec: &SessionSpec) -> LiveConfig {
    LiveConfig {
        lateness: spec.lateness.expect("fleet calls carry their lateness"),
        early_exit: EarlyExit::Never,
    }
}

/// The `live-replay` workload, set up and warmed.
pub struct ReplayBench {
    calls: Vec<Call>,
    domino: Domino,
    pool: PipelinePool,
    reference: Vec<CallResult>,
    digest: u64,
    lags_ms: Vec<f64>,
    sim_secs: f64,
    /// Per-verdict host cost of traced rounds, in trace-clock ticks.
    verdict_ticks: Vec<u64>,
}

impl ReplayBench {
    /// Simulates and records the fleet for `seed`, then warms the pool with
    /// one untimed replay round.
    pub fn new(seed: u64) -> Self {
        let domino = Domino::new(domino_core::default_graph(), DominoConfig::default());
        let calls = record(&inputs::fleet(seed));
        let pool = PipelinePool::new(
            domino.graph().clone(),
            domino.config().clone(),
            live_config(&calls[0].spec),
        )
        .expect("the paper's window configuration runs live");
        let mut bench = ReplayBench {
            sim_secs: calls.iter().map(|c| c.meta.duration.as_secs_f64()).sum(),
            calls,
            domino,
            pool,
            reference: Vec::new(),
            digest: 0,
            lags_ms: Vec::new(),
            verdict_ticks: Vec::new(),
        };
        let mut results: Vec<Option<CallResult>> = Vec::new();
        results.resize_with(bench.calls.len(), || None);
        bench.replay::<false>(|k, stats, live, verdicts, reconciled| {
            assert!(reconciled, "chaos log of call {k} must balance");
            results[k] = Some(CallResult {
                stats,
                live,
                verdicts: verdicts.to_vec(),
            });
        });
        bench.reference = results
            .into_iter()
            .map(|r| r.expect("every call finishes"))
            .collect();
        bench.digest = digest(&bench.calls, &bench.reference);
        let window = bench.domino.config().window;
        bench.lags_ms = bench
            .reference
            .iter()
            .flat_map(|r| &r.verdicts)
            .map(|v| lag_ms(v.emitted_at, v.window_start + window))
            .collect();
        bench
    }

    /// The warm-up round's per-call results, in call order.
    pub fn reference(&self) -> &[CallResult] {
        &self.reference
    }

    /// Replays every call once, one call after another, handing each
    /// finished call's results to `done` as `(call index, result, whether
    /// its chaos log reconciled)`; the verdicts are borrowed from the
    /// pipeline. Each call leases its pipeline from the pool and returns it
    /// when it finishes, so the next call reuses it.
    fn replay<const TRACED: bool>(
        &mut self,
        mut done: impl FnMut(usize, ChainStats, LiveStats, &[LiveVerdict], bool),
    ) {
        let graph = self.domino.graph();
        for (k, call) in self.calls.iter().enumerate() {
            let mut cursor = Cursor::default();
            let mut chaos = call
                .spec
                .chaos
                .as_ref()
                .map(ChaosState::new)
                .filter(|s| !s.is_noop());
            let pipe = self.pool.checkout(k as u64);
            pipe.set_live_config(live_config(&call.spec));
            while !replay_tick::<TRACED>(
                &call.recording,
                &mut cursor,
                chaos.as_mut(),
                pipe,
                &mut self.verdict_ticks,
            ) {}
            if TRACED {
                trace::switch(Layer::CoreAnalyze);
            }
            let analysis = pipe.take_analysis(call.meta.duration);
            if TRACED {
                trace::switch(Layer::CoreStats);
            }
            let stats = ChainStats::compute(graph, &analysis);
            if TRACED {
                trace::exit();
            }
            let reconciled = chaos.as_ref().is_none_or(|s| s.log.reconciled());
            done(k, stats, pipe.stats(), pipe.verdicts(), reconciled);
            self.pool.release(k as u64);
        }
    }

    fn round_of<const TRACED: bool>(&mut self) -> Round {
        let mut failed = 0u64;
        let mut finished = 0usize;
        let clock = Stopwatch::start();
        if TRACED {
            trace::begin();
        }
        let reference = std::mem::take(&mut self.reference);
        self.replay::<TRACED>(|k, stats, live, verdicts, reconciled| {
            let r = &reference[k];
            finished += 1;
            if !reconciled || stats != r.stats || live != r.live || verdicts != r.verdicts {
                failed += 1;
            }
        });
        self.reference = reference;
        if TRACED {
            trace::end();
        }
        let time = clock.elapsed();
        failed += self.calls.len().abs_diff(finished) as u64;
        Round { time, failed }
    }
}

/// Replays one call's ops up to and including its next clock op. Returns
/// whether that op was the call's `on_finish`.
fn replay_tick<const TRACED: bool>(
    rec: &Recording,
    cur: &mut Cursor,
    mut chaos: Option<&mut ChaosState>,
    pipe: &mut LivePipeline,
    verdict_ticks: &mut Vec<u64>,
) -> bool {
    loop {
        let op = rec.ops[take(&mut cur.op)];
        let clock = matches!(op, Op::Tick | Op::Finish);
        // Untraced, the pipeline is called directly; traced, the loop
        // marks the outer layer and a forwarding tap inside `ChaosTap`
        // marks the pipeline's.
        let outer = match (&chaos, clock) {
            (Some(_), _) => Layer::LiveChaos,
            (None, false) => Layer::LiveIngest,
            (None, true) => Layer::LiveTick,
        };
        let before = if TRACED { pipe.verdicts().len() } else { 0 };
        let start = if TRACED { trace::switch(outer) } else { 0 };
        {
            let mut timed;
            let inner: &mut dyn LiveTap = if TRACED && chaos.is_some() {
                timed = TimedTap { inner: &mut *pipe };
                &mut timed
            } else {
                &mut *pipe
            };
            let mut wrapped;
            let tap: &mut dyn LiveTap = match chaos.as_deref_mut() {
                Some(state) => {
                    wrapped = ChaosTap::new(state, inner);
                    &mut wrapped
                }
                None => inner,
            };
            match op {
                Op::Tick => tap.on_tick(rec.clock[take(&mut cur.clock)]),
                Op::Finish => tap.on_finish(rec.clock[take(&mut cur.clock)]),
                _ => replay_record(rec, cur, op, tap),
            }
        }
        if !clock {
            continue;
        }
        if TRACED {
            let emitted = pipe.verdicts().len() - before;
            if emitted > 0 {
                let cost = trace::mark() - start;
                verdict_ticks.extend(std::iter::repeat_n(cost / emitted as u64, emitted));
            }
        }
        return op == Op::Finish;
    }
}

/// The digest of a replay round: the calls' chain statistics and live
/// counters in the `ShardReport` encoding, then every verdict.
pub(crate) fn digest(calls: &[Call], results: &[CallResult]) -> u64 {
    let outcomes = calls
        .iter()
        .zip(results)
        .enumerate()
        .map(|(index, (c, r))| SessionOutcome {
            index,
            label: c.spec.label.clone(),
            meta: c.meta.clone(),
            bundle: None,
            analysis: None,
            stats: Some(r.stats.clone()),
            live: Some(r.live),
        })
        .collect();
    let mut text = ShardReport::from_sweep(&SweepReport {
        outcomes,
        aggregate: ChainStats::default(),
        metrics: None,
    })
    .encode();
    for (k, r) in results.iter().enumerate() {
        for v in &r.verdicts {
            text.push_str(&format!("{k}\t{v:?}\n"));
        }
    }
    fnv1a(text.as_bytes())
}

impl Bench for ReplayBench {
    fn sessions(&self) -> u64 {
        self.calls.len() as u64
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

    fn live_counts(&self) -> (u64, u64) {
        let drops = self
            .reference
            .iter()
            .map(|r| r.live.late_records_dropped as u64);
        let peak = self
            .reference
            .iter()
            .map(|r| r.live.peak_retained_records as u64);
        (drops.sum(), peak.max().unwrap_or(0))
    }

    fn verdict_ticks(&self) -> &[u64] {
        &self.verdict_ticks
    }

    fn round(&mut self, traced: bool) -> Round {
        if traced {
            self.round_of::<true>()
        } else {
            self.round_of::<false>()
        }
    }
}
