//! Per-layer self-time tracing, done from outside the program.
//!
//! The traced loops in this crate mark every call they make into a
//! layer's public function. A mark reads the clock once: the interval since
//! the previous mark is charged to the layer that owned it, and the new
//! layer owns the time until the next mark. Adjacent calls therefore share
//! one clock read, and every instant of a traced round is charged to
//! exactly one owner: the layer on top of the span stack, or "unattributed"
//! while the stack is empty. The few instructions of loop glue between
//! two adjacent calls are charged to the earlier call; everything the
//! loops do outside a marked call (session start, outcome bookkeeping,
//! checks) stays unattributed, which is what `trace.unattributed_share`
//! reports.
//!
//! Nested calls (a forwarding tap inside `ChaosTap`) push a frame with
//! [`enter`] and pop it with [`exit`], so the outer layer's self time
//! excludes them.

use std::cell::RefCell;

use telemetry::{
    AppStatsRecord, DciRecord, GnbLogRecord, LiveTap, PacketRecord, PlaybackStatsRecord,
};

use simcore::SimTime;

/// A layer of the program, named by crate and timed at its public calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SessionState::emit_tick`: the RTC/ABR send path and the netpath
    /// downlink hop.
    AppEmit,
    /// `SessionState::collect_access`: the cell's PHY/MAC/HARQ/RLC slot
    /// loop and the netpath uplink hop.
    RanAccess,
    /// `SessionState::route_event(EnqueueDownlink)`.
    RanEnqueue,
    /// `SessionState::route_event(ArriveAtPeer | ArriveAtUe)`.
    AppDeliver,
    /// Route-queue `pop_due` (the private calendar queue or the
    /// `SharedRouteQueue`).
    SimcoreQueue,
    /// `SessionState::end_tick`, minus time spent in the tap.
    TelemetryTick,
    /// `SessionState::finish`, minus time spent in the tap.
    TelemetryFinish,
    /// `ChaosTap`, minus the pipeline calls it forwards.
    LiveChaos,
    /// `LivePipeline` record calls (`on_app_local` … `on_packet_delivered`).
    LiveIngest,
    /// `LivePipeline::on_tick` / `on_finish`.
    LiveTick,
    /// `StreamingAnalyzer::analyze` or `LivePipeline::take_analysis`.
    CoreAnalyze,
    /// `ChainStats::compute`.
    CoreStats,
    /// `ShardReport::from_sweep` and `ShardReport::encode`.
    SweepReport,
}

/// Number of layers.
pub const LAYERS: usize = 13;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::AppEmit,
        Layer::RanAccess,
        Layer::RanEnqueue,
        Layer::AppDeliver,
        Layer::SimcoreQueue,
        Layer::TelemetryTick,
        Layer::TelemetryFinish,
        Layer::LiveChaos,
        Layer::LiveIngest,
        Layer::LiveTick,
        Layer::CoreAnalyze,
        Layer::CoreStats,
        Layer::SweepReport,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::AppEmit => "app.emit",
            Layer::RanAccess => "ran.access",
            Layer::RanEnqueue => "ran.enqueue",
            Layer::AppDeliver => "app.deliver",
            Layer::SimcoreQueue => "simcore.queue",
            Layer::TelemetryTick => "telemetry.tick",
            Layer::TelemetryFinish => "telemetry.finish",
            Layer::LiveChaos => "live.chaos",
            Layer::LiveIngest => "live.ingest",
            Layer::LiveTick => "live.tick",
            Layer::CoreAnalyze => "core.analyze",
            Layer::CoreStats => "core.stats",
            Layer::SweepReport => "sweep.report",
        }
    }
}

/// Accumulated trace totals, in clock ticks (see [`now`]).
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Self time per layer, indexed by `Layer as usize`.
    pub self_ticks: [u64; LAYERS],
    /// Calls per layer.
    pub calls: [u64; LAYERS],
    /// Time inside traced rounds with no layer on the stack.
    pub unattributed_ticks: u64,
    /// Time inside traced rounds, from [`begin`] to [`end`].
    pub round_ticks: u64,
}

struct Tracer {
    stack: Vec<Layer>,
    last: u64,
    round_start: u64,
    totals: Totals,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            stack: Vec::new(),
            last: 0,
            round_start: 0,
            totals: Totals {
                self_ticks: [0; LAYERS],
                calls: [0; LAYERS],
                unattributed_ticks: 0,
                round_ticks: 0,
            },
        })
    };
}

/// The trace clock: the time-stamp counter on x86-64 (about half the cost
/// of `Instant::now` on a virtual machine), nanoseconds since the first
/// call elsewhere. Ticks convert to nanoseconds with the ratio of the
/// traced rounds' tick total to their `Instant` wall time.
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; it only reads the
        // time-stamp counter.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

impl Tracer {
    #[inline]
    fn charge(&mut self) -> u64 {
        let t = now();
        let d = t.saturating_sub(self.last);
        match self.stack.last() {
            Some(&l) => self.totals.self_ticks[l as usize] += d,
            None => self.totals.unattributed_ticks += d,
        }
        self.last = t;
        t
    }
}

/// Starts a traced round.
pub fn begin() {
    TRACER.with_borrow_mut(|t| {
        assert!(t.stack.is_empty(), "traced round started inside a span");
        t.last = now();
        t.round_start = t.last;
    });
}

/// Ends a traced round; every span must be closed.
pub fn end() {
    TRACER.with_borrow_mut(|t| {
        assert!(t.stack.is_empty(), "traced round ended inside a span");
        let stop = t.charge();
        t.totals.round_ticks += stop - t.round_start;
    });
}

/// Charges the interval since the last mark to its owner and hands the
/// time from here on to `layer`, replacing the innermost open span (or
/// opening one when none is open). Returns the mark's timestamp.
#[inline]
pub fn switch(layer: Layer) -> u64 {
    TRACER.with_borrow_mut(|t| {
        let at = t.charge();
        match t.stack.last_mut() {
            Some(top) => *top = layer,
            None => t.stack.push(layer),
        }
        t.totals.calls[layer as usize] += 1;
        at
    })
}

/// Charges the interval since the last mark to its owner without changing
/// owners or counting a call. Returns the mark's timestamp.
#[inline]
pub fn mark() -> u64 {
    TRACER.with_borrow_mut(|t| t.charge())
}

/// Opens a span of `layer` nested in the current one.
#[inline]
pub fn enter(layer: Layer) {
    TRACER.with_borrow_mut(|t| {
        t.charge();
        t.stack.push(layer);
        t.totals.calls[layer as usize] += 1;
    });
}

/// Closes the innermost span; the time from here on belongs to the span
/// below it (or is unattributed).
#[inline]
pub fn exit() {
    TRACER.with_borrow_mut(|t| {
        t.charge();
        t.stack.pop().expect("exit without a matching span");
    });
}

/// Takes the totals accumulated so far and resets them.
pub fn take() -> Totals {
    TRACER.with_borrow_mut(|t| std::mem::take(&mut t.totals))
}

/// A forwarding tap nested inside `ChaosTap`: each record call is a
/// [`Layer::LiveIngest`] span, each clock call a [`Layer::LiveTick`] span.
pub struct TimedTap<'a> {
    /// The tap being timed.
    pub inner: &'a mut dyn LiveTap,
}

macro_rules! timed_record {
    ($name:ident, $ty:ty) => {
        fn $name(&mut self, r: &$ty) {
            enter(Layer::LiveIngest);
            self.inner.$name(r);
            exit();
        }
    };
}

impl LiveTap for TimedTap<'_> {
    timed_record!(on_app_local, AppStatsRecord);
    timed_record!(on_app_remote, AppStatsRecord);
    timed_record!(on_playback, PlaybackStatsRecord);
    timed_record!(on_dci, DciRecord);
    timed_record!(on_gnb, GnbLogRecord);

    fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
        enter(Layer::LiveIngest);
        self.inner.on_packet_sent(id, r);
        exit();
    }

    fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
        enter(Layer::LiveIngest);
        self.inner.on_packet_delivered(id, at);
        exit();
    }

    fn on_tick(&mut self, now: SimTime) {
        enter(Layer::LiveTick);
        self.inner.on_tick(now);
        exit();
    }

    fn on_finish(&mut self, now: SimTime) {
        enter(Layer::LiveTick);
        self.inner.on_finish(now);
        exit();
    }

    fn should_stop(&self) -> bool {
        self.inner.should_stop()
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_partition_the_round() {
        take();
        begin();
        switch(Layer::AppEmit);
        switch(Layer::RanAccess);
        enter(Layer::LiveIngest);
        exit();
        exit();
        end();
        let t = take();
        let attributed: u64 = t.self_ticks.iter().sum();
        assert_eq!(attributed + t.unattributed_ticks, t.round_ticks);
        assert_eq!(t.calls[Layer::AppEmit as usize], 1);
        assert_eq!(t.calls[Layer::RanAccess as usize], 1);
        assert_eq!(t.calls[Layer::LiveIngest as usize], 1);
    }
}
