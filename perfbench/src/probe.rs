//! Per-layer probes, measured from outside each layer's public trait.
//!
//! [`Timed`] wraps an [`RpcTransport`] or a [`ServerHandler`];
//! [`Probed`] wraps a [`Logic`]. In the traced build each call through a
//! wrapper is timed with the host clock; in the untraced build [`TIMED`]
//! is `false` and every wrapper is a plain forwarding call. Either way
//! the wrappers count calls and responses (one integer add each), so
//! both builds produce the same fingerprint.

use bytes::Bytes;
use rdma_fabric::{Fabric, NodeId, QpId, Upcall};
use rpc_core::transport::{ClientOverhead, LifecycleEv, OneSidedAccess};
use rpc_core::{ClientId, Cx, Logic, Response, RpcTransport, ServerHandler};
use simcore::{SimDuration, SimTime};
use std::time::Instant;

/// Whether this build times layer calls (the traced build only).
pub const TIMED: bool = cfg!(feature = "trace");

/// Host time spent inside one layer's calls, and how many calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Host nanoseconds inside the calls (0 in the untraced build).
    pub nanos: u64,
    /// Calls made into the layer.
    pub calls: u64,
}

impl LayerTime {
    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !TIMED {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.nanos += t0.elapsed().as_nanos() as u64;
        r
    }

    /// Sum of two layer tallies.
    pub fn plus(self, o: LayerTime) -> LayerTime {
        LayerTime {
            nanos: self.nanos + o.nanos,
            calls: self.calls + o.calls,
        }
    }

    /// Host seconds inside the layer.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A transport or server handler with its calls timed and counted.
pub struct Timed<T> {
    /// The wrapped layer.
    pub inner: T,
    /// Time and calls spent in `inner`.
    pub time: LayerTime,
    /// Requests submitted (transports only).
    pub submitted: u64,
    /// Responses the transport handed back (transports only).
    pub responses: u64,
}

impl<T> Timed<T> {
    /// Wraps `inner` with empty tallies.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            time: LayerTime::default(),
            submitted: 0,
            responses: 0,
        }
    }
}

impl<H: ServerHandler> ServerHandler for Timed<H> {
    fn handle(
        &mut self,
        client: ClientId,
        request: &[u8],
        fabric: &mut Fabric,
    ) -> (Bytes, SimDuration) {
        let inner = &mut self.inner;
        self.time.time(|| inner.handle(client, request, fabric))
    }
}

impl<T: RpcTransport> RpcTransport for Timed<T> {
    type Ev = T::Ev;

    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        self.inner.init(cx);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.time.time(|| inner.on_upcall(up, cx, out));
        self.responses += (out.len() - before) as u64;
    }

    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.time.time(|| inner.on_app(ev, cx, out));
        self.responses += (out.len() - before) as u64;
    }

    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, Self::Ev>,
        out: &mut Vec<Response>,
    ) {
        let before = out.len();
        let inner = &mut self.inner;
        self.time
            .time(|| inner.submit(client, seq, payload, cx, out));
        self.submitted += 1;
        self.responses += (out.len() - before) as u64;
    }

    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, Self::Ev>) {
        let inner = &mut self.inner;
        self.time.time(|| inner.on_lifecycle(ev, cx));
    }

    fn client_overhead(&self) -> ClientOverhead {
        self.inner.client_overhead()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: OneSidedAccess> OneSidedAccess for Timed<T> {
    fn client_qp(&self, client: ClientId) -> Option<QpId> {
        self.inner.client_qp(client)
    }
}

/// The simulated phases of a run: warmup, the measured window, and the
/// drain after clients stop posting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// End of warmup (start of the measured window).
    pub warmup_end: SimTime,
    /// End of the measured window; clients stop posting here.
    pub stop: SimTime,
    /// Deadline of the drain phase.
    pub drain_end: SimTime,
}

impl Timeline {
    fn phase(&self, now: SimTime) -> usize {
        if now <= self.warmup_end {
            0
        } else if now <= self.stop {
            1
        } else {
            2
        }
    }
}

/// A workload logic (the closed-loop driver) with its callbacks timed.
///
/// Besides timing, it notes per phase the host instants of the first
/// callback's start and the last callback's end. The engine cannot be
/// timed from outside, so its busy time is taken as the sum of those
/// spans, which also works when shards run on several threads.
///
/// When the measured window opens it restarts the LLC hit/miss
/// statistics of the server nodes (statistics only, not cache contents),
/// so CPU-side miss ratios exclude warmup.
#[derive(Clone)]
pub struct Probed<L> {
    /// The wrapped logic.
    pub inner: L,
    /// Time and calls spent in `inner`'s callbacks (init excluded).
    pub time: LayerTime,
    timeline: Timeline,
    spans: [Option<(Instant, Instant)>; 3],
    llc_reset: Vec<NodeId>,
}

impl<L: Logic> Probed<L> {
    /// Wraps `inner`; `servers` get their LLC statistics restarted when
    /// the measured window of `timeline` opens.
    pub fn new(inner: L, timeline: Timeline, servers: Vec<NodeId>) -> Self {
        Probed {
            inner,
            time: LayerTime::default(),
            timeline,
            spans: [None; 3],
            llc_reset: servers,
        }
    }

    /// Host nanoseconds between the first and last callback of each
    /// phase, summed over phases (0 in the untraced build).
    pub fn busy_nanos(&self) -> u64 {
        self.spans
            .iter()
            .flatten()
            .map(|(a, b)| b.duration_since(*a).as_nanos() as u64)
            .sum()
    }

    #[inline(always)]
    fn call(&mut self, cx: &mut Cx<'_, L::Ev>, f: impl FnOnce(&mut L, &mut Cx<'_, L::Ev>)) {
        if !self.llc_reset.is_empty() && cx.now > self.timeline.warmup_end {
            for node in std::mem::take(&mut self.llc_reset) {
                cx.fabric
                    .reset_llc_stats(node)
                    .expect("server node belongs to the fabric");
            }
        }
        self.time.calls += 1;
        if !TIMED {
            return f(&mut self.inner, cx);
        }
        let t0 = Instant::now();
        f(&mut self.inner, cx);
        let t1 = Instant::now();
        self.time.nanos += t1.duration_since(t0).as_nanos() as u64;
        let span = &mut self.spans[self.timeline.phase(cx.now)];
        match span {
            Some((_, end)) => *end = t1,
            None => *span = Some((t0, t1)),
        }
    }
}

impl<L: Logic> Logic for Probed<L> {
    type Ev = L::Ev;

    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        self.inner.init(cx);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>) {
        self.call(cx, |l, cx| l.on_upcall(up, cx));
    }

    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>) {
        self.call(cx, |l, cx| l.on_app(ev, cx));
    }
}
