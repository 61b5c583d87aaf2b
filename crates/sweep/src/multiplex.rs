//! The sweep engine loop: one worker advances up to N concurrent
//! sessions through **one shared calendar queue**, **one shared
//! [`SessionArena`]**, and (in live mode) **one session-keyed
//! [`PipelinePool`]** — the operator deployment shape, where a thread
//! watches a fleet of interleaved calls instead of running one call to
//! completion at a time.
//!
//! # Scheduling
//!
//! All co-scheduled sessions share the engine tick, and the driver steps
//! them on one global tick lattice. Each global tick runs three sweeps over
//! the active set, preserving every session's solo phase order:
//!
//! 1. [`SessionState::begin_tick`] for every active session (endpoints
//!    emit, access network advances); route events land in the shared
//!    [`SharedRouteQueue`] tagged with the session's spec index and shifted
//!    to global time by its start offset.
//! 2. One global drain of the shared queue in `(time, session, seq)` order;
//!    each popped event is dispatched to its session at session-local time.
//!    Route handlers never schedule further route events, so the drain is
//!    closed within the tick — and restricted to one session it replays
//!    exactly the `(time, seq)` pop order of a private queue.
//! 3. [`SessionState::end_tick`] for every active session; finished
//!    sessions (duration reached, or live early-exit) are finalised, their
//!    slot immediately refilled from the work queue with a session whose
//!    clock starts at the *current* global tick — so long sweeps run with
//!    staggered start offsets as a matter of course.
//!
//! A claimed spec whose engine tick differs from the lattice's is parked:
//! refilling stops until the active set drains, and the parked spec then
//! starts a new lattice as its first session. Width 1
//! ([`ExecutionMode::PerWorker`]) is the same loop with one slot, so every
//! sweep runs through it.
//!
//! # Determinism
//!
//! Sessions never interact: all randomness is per-session (derived from the
//! spec seed), per-session sub-state is leased from the arena and cleared
//! at lease time, and the shared queue's tag keeps per-session event order
//! identical to a private queue's. Per-session outputs are therefore
//! **byte-identical** to solo runs at any multiplex width and any
//! interleaving of start offsets — `tests/multiplex_determinism.rs`
//! enforces this the same way the PR 3/4 contracts are enforced.
//!
//! Stale events are harmless by construction: a session that ends (or
//! aborts) may leave already-scheduled route events in the shared queue;
//! their tag no longer matches an active session when they pop, so they are
//! dropped — exactly as the solo driver's `queue.clear()` would have
//! discarded them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use domino_core::{Analysis, ChainStats, Domino, StreamingAnalyzer};
use domino_live::{ChaosState, ChaosTap, PipelinePool};
use domino_obs::{Counter, FGauge, Gauge, Recorder, SpanId};
use scenarios::{SessionArena, SessionSpec, SessionState, SharedRouteQueue};
use simcore::{alloc_count, SimDuration, SimTime};
use telemetry::{LiveTap, NullTap, TraceBundle};

use crate::{
    live_config_for, record_chaos_obs, record_live_obs, AnalysisMode, SessionOutcome, SweepOptions,
};

/// How many sessions each sweep worker keeps in flight. Both variants run
/// the same [`MuxWorker`] loop; they differ only in its width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One session at a time per worker, run to completion: width 1 of the
    /// same loop.
    #[default]
    PerWorker,
    /// Up to `width` sessions interleaved per worker through one shared
    /// calendar queue, arena, and pipeline pool (see the
    /// [module docs](crate::multiplex)). `width` ≤ 1 behaves like
    /// [`ExecutionMode::PerWorker`].
    Multiplexed {
        /// Concurrent sessions per worker.
        width: usize,
    },
}

impl ExecutionMode {
    /// Sessions each worker keeps in flight.
    pub(crate) fn width(self) -> usize {
        match self {
            ExecutionMode::PerWorker => 1,
            ExecutionMode::Multiplexed { width } => width,
        }
    }
}

/// One interleaved session in flight.
struct Active {
    /// Global spec index — the shared-queue tag and pipeline-pool key.
    index: usize,
    state: SessionState,
    /// Global time at which this session's local clock started (a multiple
    /// of the group tick: sessions start on the lattice).
    offset: SimDuration,
}

/// Everything one multiplexing worker owns: the shared arena (scratch plus
/// free-listed per-session sub-state), the shared tagged route-event queue,
/// and the analyzer or pipeline pool for the configured [`AnalysisMode`].
///
/// `run_sweep` spawns one per worker thread, at the width
/// [`SweepOptions::execution`] gives; embedders (and the throughput
/// microbenches) that already own a thread can drive one directly through
/// [`MuxWorker::run_batch`], reusing its warm arena/queue/pool across
/// batches. With a warm worker a session performs O(1) large allocations.
pub struct MuxWorker {
    arena: SessionArena,
    shared: SharedRouteQueue,
    pool: Option<PipelinePool>,
    analyzer: Option<StreamingAnalyzer>,
    /// Per-session telemetry-chaos state for in-flight degraded cells,
    /// keyed like the pipeline pool. Sessions with no chaos plan have no
    /// entry and their taps bypass the wrapper entirely.
    chaos: HashMap<u64, ChaosState>,
}

impl MuxWorker {
    /// Creates the worker state `opts.analysis` needs under `domino`'s
    /// configuration.
    pub fn new(domino: &Domino, opts: &SweepOptions) -> Self {
        let analyzer = match opts.analysis {
            AnalysisMode::Streaming => {
                StreamingAnalyzer::new(domino.graph().clone(), domino.config().clone()).ok()
            }
            _ => None,
        };
        let pool = match opts.analysis {
            AnalysisMode::Live => {
                PipelinePool::new(domino.graph().clone(), domino.config().clone(), opts.live).ok()
            }
            _ => None,
        };
        let mut arena = SessionArena::new();
        *arena.recorder_mut() = Recorder::new(opts.obs);
        MuxWorker {
            arena,
            shared: SharedRouteQueue::new(),
            pool,
            analyzer,
            chaos: HashMap::new(),
        }
    }

    /// The worker's metrics recorder (disabled unless
    /// [`SweepOptions::obs`] enabled it at construction).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        self.arena.recorder_mut()
    }

    /// Retained storage in elements: the arena's footprint
    /// ([`SessionArena::footprint`]) plus the shared route queue's
    /// capacity. It must stay flat once the worker is warm.
    pub fn footprint(&self) -> usize {
        self.arena.footprint() + self.shared.capacity()
    }

    /// Drives every spec through this worker at up to `width` in flight
    /// (no threads spawned; claims indices in order) and returns the
    /// outcomes in spec order. Arena, shared queue, and pipeline pool stay
    /// warm across calls.
    pub fn run_batch(
        &mut self,
        specs: &[SessionSpec],
        width: usize,
        domino: &Domino,
        opts: &SweepOptions,
    ) -> Vec<SessionOutcome> {
        let mut next = 0usize;
        let mut slots: Vec<Option<SessionOutcome>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let mut claim = || {
            let i = next;
            next += 1;
            (i < specs.len()).then_some(i)
        };
        let mut complete = |o: SessionOutcome| {
            let index = o.index;
            slots[index] = Some(o);
        };
        self.run(width, specs, domino, opts, &mut claim, &mut complete, None);
        slots
            .into_iter()
            .map(|s| s.expect("every spec completed"))
            .collect()
    }

    /// Runs sessions claimed from `claim` at up to `width` in flight,
    /// delivering each finished [`SessionOutcome`] to `complete` (in
    /// completion order; the caller slots them by index).
    /// `footprint_peak`, when given, receives a `fetch_max` of
    /// [`MuxWorker::footprint`] after every completed session (the sweep's
    /// shared high-water the progress callback reports).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        width: usize,
        specs: &[SessionSpec],
        domino: &Domino,
        opts: &SweepOptions,
        claim: &mut dyn FnMut() -> Option<usize>,
        complete: &mut dyn FnMut(SessionOutcome),
        footprint_peak: Option<&AtomicU64>,
    ) {
        let width = width.max(1);
        let live = opts.analysis == AnalysisMode::Live && self.pool.is_some();
        self.shared.clear();
        self.chaos.clear();
        let obs_on = self.arena.recorder_mut().is_on();
        // Batch-level baselines: the recorder outlives run() calls (warm
        // worker reuse), so allocator and pool rollups record deltas.
        let (allocs_before, ticks_before) = if obs_on {
            (
                alloc_count::allocations(),
                self.arena.recorder_mut().counter(Counter::EngineTicks),
            )
        } else {
            (0, 0)
        };
        let pool_before = self.pool.as_ref().map(|p| p.stats()).unwrap_or_default();
        let mut active: Vec<Active> = Vec::with_capacity(width);
        let mut null = NullTap;
        // Global driver clock and the group tick, fixed by the first
        // session of each lattice. A claimed spec whose engine tick differs
        // cannot share the lattice: it is parked, refilling stops until the
        // active set drains, and it then starts the next lattice.
        let mut global = SimTime::ZERO;
        let mut tick: Option<SimDuration> = None;
        let mut parked: Option<usize> = None;

        loop {
            if active.is_empty() {
                // No session pins the lattice: let the next session re-fix
                // the group tick, so one atypical-tick spec cannot disable
                // interleaving for the rest of the sweep.
                tick = None;
            }
            // Refill free slots; new sessions start at the current tick.
            while active.len() < width {
                let next = match parked {
                    Some(_) if !active.is_empty() => break,
                    Some(_) => parked.take(),
                    None => claim(),
                };
                let Some(index) = next else { break };
                let spec = &specs[index];
                match tick {
                    None => tick = Some(spec.cfg.tick),
                    Some(t) if t != spec.cfg.tick => {
                        parked = Some(index);
                        break;
                    }
                    Some(_) => {}
                }
                if live {
                    let pipe = self
                        .pool
                        .as_mut()
                        .expect("live implies pool")
                        .checkout(index as u64);
                    pipe.set_live_config(live_config_for(spec, opts));
                    if let Some(plan) = &spec.chaos {
                        let state = ChaosState::new(plan);
                        if !state.is_noop() {
                            self.chaos.insert(index as u64, state);
                        }
                    }
                }
                let s = Active {
                    index,
                    state: spec.start_in(live, &mut self.arena),
                    offset: global - SimTime::ZERO,
                };
                if s.state.is_done() {
                    // Degenerate spec (duration shorter than its tick): no
                    // tick may be begun — finalise straight away.
                    let label = spec.label.clone();
                    complete(self.finish(s, label, domino, opts, live, footprint_peak));
                } else {
                    active.push(s);
                }
            }
            if active.is_empty() {
                if parked.is_none() {
                    break;
                }
                // A degenerate spec fixed the tick and left nothing
                // running: loop round to reset it for the parked spec.
                continue;
            }
            self.arena
                .recorder_mut()
                .gauge_max(Gauge::MuxInFlightPeak, active.len() as u64);
            let MuxWorker {
                arena,
                shared,
                pool,
                chaos,
                ..
            } = self;
            global += tick.expect("tick fixed by the first claimed spec");

            // Phase 1–2 for every active session, in slot order.
            for s in active.iter_mut() {
                let mut sink = shared.sink(s.index as u64, s.offset);
                with_tap(live, pool, chaos, &mut null, s.index as u64, |tap| {
                    s.state.begin_tick(tap, arena.scratch_mut(), &mut sink)
                });
            }

            // Phase 3: one global drain in (time, session, seq) order.
            let span = arena.recorder_mut().span_enter(SpanId::RouteDrain);
            let (mut routed, mut stale) = (0u64, 0u64);
            while let Some((at, tag, ev)) = shared.pop_due(global) {
                let Some(s) = active.iter_mut().find(|s| s.index as u64 == tag) else {
                    stale += 1;
                    continue; // stale event of a finished session
                };
                let local = at - s.offset;
                with_tap(live, pool, chaos, &mut null, tag, |tap| {
                    s.state.route_event(local, ev, tap)
                });
                routed += 1;
            }
            let rec = arena.recorder_mut();
            rec.span_exit(SpanId::RouteDrain, span);
            // Dispatched events are per-session and width-invariant (`Sim`);
            // stale drops exist only because sessions share the queue, so
            // their count varies with width (`Runtime`).
            rec.add(Counter::EngineRouteEvents, routed);
            rec.add(Counter::MuxStaleDrops, stale);

            // Phase 4–5; finalise finished sessions and free their slots.
            let mut i = 0;
            while i < active.len() {
                let s = &mut active[i];
                let arena = &mut self.arena;
                let done = with_tap(
                    live,
                    &mut self.pool,
                    &mut self.chaos,
                    &mut null,
                    s.index as u64,
                    |tap| s.state.end_tick(tap, arena.scratch_mut()),
                );
                if done {
                    let s = active.swap_remove(i);
                    let label = specs[s.index].label.clone();
                    complete(self.finish(s, label, domino, opts, live, footprint_peak));
                } else {
                    i += 1;
                }
            }
        }

        if obs_on {
            let allocs = alloc_count::allocations() - allocs_before;
            let pool_now = self.pool.as_ref().map(|p| p.stats());
            let rec = self.arena.recorder_mut();
            let ticks = rec.counter(Counter::EngineTicks) - ticks_before;
            rec.add(Counter::ProcAllocs, allocs);
            if ticks > 0 {
                // One batch-wide figure over all engine ticks: interleaved
                // sessions share the allocator, so a per-session
                // attribution does not exist.
                rec.fgauge_max(FGauge::AllocsPerTickPeak, allocs as f64 / ticks as f64);
            }
            if let Some(st) = pool_now {
                rec.add(
                    Counter::PoolCreated,
                    (st.created - pool_before.created) as u64,
                );
                rec.add(Counter::PoolReused, (st.reused - pool_before.reused) as u64);
                rec.add(
                    Counter::PoolEvicted,
                    (st.evicted - pool_before.evicted) as u64,
                );
            }
        }
    }

    /// Finishes one session and builds its [`SessionOutcome`]. A live
    /// session flushes its pipeline via `on_finish`, takes the accumulated
    /// analysis, and releases the pipeline back to the pool (warm, ready
    /// for the next call); other modes run the configured post-hoc pass
    /// over the finished bundle. The bundle is retained or recycled per
    /// `opts`, and the worker footprint is then recorded in the recorder's
    /// high-water gauge and, when given, in the sweep-wide `footprint_peak`.
    fn finish(
        &mut self,
        s: Active,
        label: String,
        domino: &Domino,
        opts: &SweepOptions,
        live: bool,
        footprint_peak: Option<&AtomicU64>,
    ) -> SessionOutcome {
        let MuxWorker {
            arena,
            pool,
            analyzer,
            chaos,
            ..
        } = self;
        let index = s.index;
        let key = index as u64;
        let mut chaos = chaos.remove(&key);
        let (bundle, analysis, live_stats) = if live {
            let pool = pool.as_mut().expect("live implies pool");
            let tap = pool.get_mut(key).expect("leased at claim");
            // `finish` drives the tap's `on_finish`; with chaos in flight it
            // must route through the wrapper so delayed records still in the
            // chaos stash flush into the pipeline before the final windows.
            let bundle = match &mut chaos {
                Some(state) => s.state.finish(&mut ChaosTap::new(state, tap), arena),
                None => s.state.finish(tap, arena),
            };
            let pipe = pool.get_mut(key).expect("leased at claim");
            let analysis = pipe.take_analysis(bundle.meta.duration);
            record_live_obs(arena.recorder_mut(), pipe);
            (bundle, Some(analysis), pool.release(key))
        } else {
            let bundle = s.state.finish(&mut NullTap, arena);
            let analysis = post_hoc_analysis(&bundle, analyzer, domino, opts);
            (bundle, analysis, None)
        };
        if let Some(state) = &chaos {
            assert!(
                state.log.reconciled(),
                "chaos log of session {index} does not balance: {:?}",
                state.log
            );
            record_chaos_obs(arena.recorder_mut(), &state.log);
        }
        arena.recorder_mut().add(Counter::EngineSessions, 1);
        let stats = analysis
            .as_ref()
            .map(|a| ChainStats::compute(domino.graph(), a));
        let meta = bundle.meta.clone();
        let bundle = if opts.keep_bundles {
            Some(bundle)
        } else {
            arena.recycle(bundle);
            None
        };
        let fp = self.footprint() as u64;
        self.arena
            .recorder_mut()
            .gauge_max(Gauge::ArenaFootprint, fp);
        if let Some(peak) = footprint_peak {
            peak.fetch_max(fp, Ordering::Relaxed);
        }
        SessionOutcome {
            index,
            label,
            meta,
            bundle,
            analysis: if opts.keep_analyses { analysis } else { None },
            stats,
            live: live_stats,
        }
    }
}

/// Resolves the tap a session's step methods receive — its leased pipeline
/// in live mode, the worker's shared null tap otherwise — wraps it in the
/// session's [`ChaosTap`] when a chaos plan is in flight, and hands it to
/// `f`. The wrapper is built per call (it borrows both the per-session
/// chaos state and the pipeline), which is free: it is two reborrows.
fn with_tap<R>(
    live: bool,
    pool: &mut Option<PipelinePool>,
    chaos: &mut HashMap<u64, ChaosState>,
    null: &mut NullTap,
    session: u64,
    f: impl FnOnce(&mut dyn LiveTap) -> R,
) -> R {
    let inner: &mut dyn LiveTap = if live {
        pool.as_mut()
            .expect("live implies pool")
            .get_mut(session)
            .expect("leased at claim")
    } else {
        null
    };
    match chaos.get_mut(&session) {
        Some(state) => f(&mut ChaosTap::new(state, inner)),
        None => f(inner),
    }
}

/// The post-hoc analysis pass for non-live modes: streaming when supported,
/// batch for `AnalysisMode::Batch`, streaming-unsupported configs, and the
/// live fallback (pool construction rejected the configuration).
fn post_hoc_analysis(
    bundle: &TraceBundle,
    analyzer: &mut Option<StreamingAnalyzer>,
    domino: &Domino,
    opts: &SweepOptions,
) -> Option<Analysis> {
    match (opts.analysis, analyzer) {
        (AnalysisMode::None, _) => None,
        (AnalysisMode::Streaming, Some(a)) => Some(a.analyze(bundle)),
        _ => Some(domino.analyze(bundle)),
    }
}
