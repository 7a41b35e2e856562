//! The three benchmark workloads, built and driven through the probes.
//!
//! Every workload is a closed loop with a fixed client count, runs in
//! one process on one engine thread, starts with empty modelled caches,
//! and measures only the window after warmup. Each run goes through
//! three phases: warmup, the measured window, and a drain after clients
//! stop posting, so every request can be accounted for. The engine is
//! stepped one [`SLICE`] of simulated time at a time and each slice's
//! host time is kept.

use crate::probe::{LayerTime, Probed, Timed, Timeline};
use crate::stats::{Model, ServerSnap};
use mica_kv::item::read_lock;
use rdma_fabric::{Fabric, FabricParams, NodeId};
use rpc_baselines::RawWrite;
use rpc_core::transport::EchoHandler;
use rpc_core::{Cluster, ClusterSpec, Harness, HarnessConfig, Logic, RpcTransport, ShardedSim};
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scaletx::{TxConfig, TxSim, TxWorkload};
use simcore::stats::{CounterSet, Histogram};
use simcore::{SimDuration, SimTime};
use simtrace::Stage;
use std::ops::Range;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ScaleRPC hub, 400 clients, 32 B echo, batch 8 (Fig. 8).
    RpcScaleRpc,
    /// RawWrite baseline, 400 clients, 32 B echo, window 4.
    RpcRawWrite,
    /// ScaleTX object store over ScaleRPC, 160 coordinators.
    Tx,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::RpcScaleRpc, Workload::RpcRawWrite, Workload::Tx];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcScaleRpc => "rpc_scalerpc_400c_b8",
            Workload::RpcRawWrite => "rpc_rawwrite_400c_w4",
            Workload::Tx => "tx_objstore_160c",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent client populations simulated per run, each from its
    /// own seed derived from the run's seed. ScaleRPC at 400 clients is
    /// bistable: about a third of start-up states settle into a rotation
    /// pattern whose median batch latency is ~40 µs instead of ~30 µs,
    /// so its run pools eight populations. Transaction throughput varies
    /// by ~7 % between single populations, so its run pools three. The
    /// others repeat within 3 % across seeds from one population.
    pub fn instances(self) -> u64 {
        match self {
            Workload::RpcScaleRpc => 8,
            Workload::Tx => 3,
            _ => 1,
        }
    }

    /// What one latency sample is.
    pub fn latency_kind(self) -> &'static str {
        match self {
            Workload::RpcScaleRpc => "batch",
            Workload::RpcRawWrite => "request",
            Workload::Tx => "commit",
        }
    }
}

/// Everything one run of a workload measured.
pub struct Outcome {
    /// Host seconds of each set-up (fabric, cluster, MRs, QPs,
    /// transport, logic and engine, up to the first event).
    pub setup_s: Vec<f64>,
    /// Host seconds of each [`SLICE`] of the simulate phase (warmup,
    /// window and drain), in simulated order.
    pub slices_s: Vec<f64>,
    /// The slices of `slices_s` that make up the measured window.
    pub window_slices: Range<usize>,
    /// Simulated events over the whole run.
    pub events: u64,
    /// Length of the measured window (simulated).
    pub window: SimDuration,
    /// Operations completed in the window: RPCs, writes or commits.
    pub ops: u64,
    /// Latency samples from the window, in nanoseconds.
    pub latency: Histogram,
    /// Operations attempted in the window that did not complete in it:
    /// still outstanding when it closed, or (transactions) aborted.
    pub unfinished: u64,
    /// Base of `unfinished`: operations attempted in the window.
    pub attempted: u64,
    /// Requests issued over the whole run.
    pub issued: u64,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Retries: failover retransmissions, or aborted transactions.
    pub retries: u64,
    /// Requests still outstanding after the drain.
    pub stuck: u64,
    /// KV lock words still held after the drain (transactions only).
    pub locks_held: u64,
    /// Server-node counters over the whole run, summed over servers.
    pub counters: CounterSet,
    /// Server-node model counters over the window.
    pub model: Model,
    /// ScaleRPC group rotations, summed over servers.
    pub rotations: u64,
    /// ScaleRPC connection groups at the end, summed over servers.
    pub groups: u64,
    /// Transactions attempted in the window (committed or aborted).
    pub tx_attempts: u64,
    /// Workload-logic callbacks (harness or transaction driver).
    pub logic: LayerTime,
    /// Transport trait calls.
    pub transport: LayerTime,
    /// Server handler calls.
    pub handler: LayerTime,
    /// Host nanoseconds the engine loops were busy (traced build).
    pub busy_nanos: u64,
    /// Allocations and bytes over the simulate phase (traced build).
    pub alloc: Option<(u64, u64)>,
    /// Per-stage latency of traced requests in the window.
    pub stages: Vec<(Stage, Histogram)>,
}

/// What the engine phases measured.
struct Driven {
    events: u64,
    slices_s: Vec<f64>,
    window_slices: Range<usize>,
    model: Model,
    counters: CounterSet,
    alloc: Option<(u64, u64)>,
}

/// Runs warmup, window and drain, snapshotting the servers around the
/// window. `at_stop` reads the logic when the window closes.
fn drive<L: Logic, S>(
    sim: &mut ShardedSim<Probed<L>>,
    tl: Timeline,
    servers: &[NodeId],
    mut step: impl FnMut(&mut ShardedSim<Probed<L>>, SimTime) -> u64,
    at_stop: impl FnOnce(&ShardedSim<Probed<L>>) -> S,
) -> (Driven, S) {
    let alloc0 = crate::alloc::counts();
    let mut slices_s = Vec::new();
    let mut timed = |sim: &mut ShardedSim<Probed<L>>, from: SimTime, to: SimTime| {
        let mut t = from;
        while t < to {
            t = (t + SLICE).min(to);
            let t0 = Instant::now();
            step(sim, t);
            slices_s.push(t0.elapsed().as_secs_f64());
        }
    };
    timed(sim, SimTime::ZERO, tl.warmup_end);
    let before = ServerSnap::take(sim, servers);
    timed(sim, tl.warmup_end, tl.stop);
    let after = ServerSnap::take(sim, servers);
    let llc = servers
        .iter()
        .map(|&n| {
            sim.fabric(sim.shard_of(n))
                .llc_miss_rate(n)
                .expect("server node")
        })
        .collect();
    let stopped = at_stop(sim);
    timed(sim, tl.stop, tl.drain_end);
    let alloc = match (alloc0, crate::alloc::counts()) {
        (Some((a0, b0)), Some((a1, b1))) => Some((a1 - a0, b1 - b0)),
        _ => None,
    };
    let window_slices = slice_index(tl.warmup_end)..slice_index(tl.stop);
    assert_eq!(slices_s.len(), slice_index(tl.drain_end), "slice count");
    let driven = Driven {
        events: sim.events(),
        slices_s,
        window_slices,
        model: Model::between(&before, &after, llc),
        counters: ServerSnap::take(sim, servers).total(),
        alloc,
    };
    (driven, stopped)
}

/// Simulated length of one timed slice of the simulate phase. The host
/// time of each slice is kept apart so that `run.py` can take, slice by
/// slice, the fastest of a run's repeats (see README.md).
pub(crate) const SLICE: SimDuration = SimDuration::micros(100);

/// Number of slices from time zero to `t`, a multiple of [`SLICE`].
fn slice_index(t: SimTime) -> usize {
    assert_eq!(
        t.as_nanos() % SLICE.as_nanos(),
        0,
        "phase not slice-aligned"
    );
    (t.as_nanos() / SLICE.as_nanos()) as usize
}

/// Builds `setups` times, timing each, and keeps the last build.
fn timed_setups<B>(setups: usize, mut build: impl FnMut() -> B) -> (B, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let b = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(b);
    }
    (last.expect("at least one set-up"), times)
}

/// Runs the populations of `w` for the run seed `seed`, setting each
/// up `setups` times, or only the first `populations` of them. Population
/// `i` of `k` uses seed `seed * k + i`, however many of them run.
pub fn run(w: Workload, seed: u64, setups: usize, populations: u64) -> Vec<Outcome> {
    let k = w.instances();
    (0..populations.min(k))
        .map(|i| instance(w, seed.wrapping_mul(k).wrapping_add(i), setups))
        .collect()
}

fn instance(w: Workload, seed: u64, setups: usize) -> Outcome {
    match w {
        Workload::RpcScaleRpc => rpc(seed, setups, 8, 1, SCALERPC_RUN, |fabric, cluster| {
            let sc = ScaleRpcConfig::default();
            ScaleRpc::new(fabric, cluster, sc, Timed::new(EchoHandler::default()))
        }),
        Workload::RpcRawWrite => rpc(seed, setups, 1, 4, RAWWRITE_RUN, |fabric, cluster| {
            RawWrite::new(fabric, cluster, 8, 4096, Timed::new(EchoHandler::default()))
        }),
        Workload::Tx => tx(seed, setups),
    }
}

impl Outcome {
    /// Adds another population's results of the same workload: counts
    /// and host times sum, histograms and counters merge.
    pub fn absorb(&mut self, o: &Outcome) {
        self.setup_s.extend_from_slice(&o.setup_s);
        self.events += o.events;
        self.window += o.window;
        self.ops += o.ops;
        self.latency.merge(&o.latency);
        self.unfinished += o.unfinished;
        self.attempted += o.attempted;
        self.issued += o.issued;
        self.completed += o.completed;
        self.retries += o.retries;
        self.stuck += o.stuck;
        self.locks_held += o.locks_held;
        self.counters.merge(&o.counters);
        self.model.merge(&o.model);
        self.rotations += o.rotations;
        self.groups += o.groups;
        self.tx_attempts += o.tx_attempts;
        self.logic = self.logic.plus(o.logic);
        self.transport = self.transport.plus(o.transport);
        self.handler = self.handler.plus(o.handler);
        self.busy_nanos += o.busy_nanos;
        self.alloc = match (self.alloc, o.alloc) {
            (Some((a, b)), Some((c, d))) => Some((a + c, b + d)),
            _ => None,
        };
        for ((_, a), (_, b)) in self.stages.iter_mut().zip(&o.stages) {
            a.merge(b);
        }
    }
}

/// What the RPC runner needs to know about a transport beyond the trait.
trait Inspect {
    fn handler_time(&self) -> LayerTime;
    fn rotations_groups(&self) -> (u64, u64);
}

impl Inspect for ScaleRpc<Timed<EchoHandler>> {
    fn handler_time(&self) -> LayerTime {
        self.handler().time
    }
    fn rotations_groups(&self) -> (u64, u64) {
        (self.rotations() as u64, self.plan().groups.len() as u64)
    }
}

impl Inspect for RawWrite<Timed<EchoHandler>> {
    fn handler_time(&self) -> LayerTime {
        self.handler().time
    }
    fn rotations_groups(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Simulated lengths of the hub RPC runs. Shorter ScaleRPC windows
/// measure mostly its start-up transient: the pooled p50 is ~73 µs with a
/// 5 ms window, ~36 µs with 10 ms and ~32 µs with 20 ms.
pub(crate) const RPC_WARMUP: SimDuration = SimDuration::millis(2);
pub(crate) const SCALERPC_RUN: SimDuration = SimDuration::millis(20);
pub(crate) const RAWWRITE_RUN: SimDuration = SimDuration::millis(20);
/// Drain after posting stops, as the repository's RPC runner uses.
const DRAIN: SimDuration = SimDuration::millis(3);

/// Window-1 transports get `batch`; `window > 1` runs the asynchronous
/// client with batch 1 (the harness requires it).
fn rpc<T: RpcTransport + Inspect>(
    seed: u64,
    setups: usize,
    batch: usize,
    window: usize,
    run: SimDuration,
    make: impl Fn(&mut Fabric, &Cluster) -> T,
) -> Outcome {
    let tl = Timeline {
        warmup_end: SimTime::ZERO + RPC_WARMUP,
        stop: SimTime::ZERO + RPC_WARMUP + run,
        drain_end: SimTime::ZERO + RPC_WARMUP + run + DRAIN,
    };
    let hcfg = HarnessConfig {
        batch_size: batch,
        request_size: 32,
        warmup: RPC_WARMUP,
        run,
        seed,
        window,
        ..HarnessConfig::default()
    };
    let mut server = NodeId(0);
    let (mut sim, setup_s) = timed_setups(setups, || {
        let mut fabric = Fabric::new(FabricParams::default());
        // Stage spans are recorded only by the traced build; the call is
        // a no-op otherwise.
        fabric.set_tracer(simtrace::Tracer::enabled());
        let cluster = Cluster::build(
            &mut fabric,
            ClusterSpec {
                server_threads: 10,
                client_machines: 11,
                threads_per_machine: 8,
                cores_per_machine: 8,
                clients: 400,
            },
        );
        server = cluster.server;
        let transport = Timed::new(make(&mut fabric, &cluster));
        let harness = Harness::new(transport, cluster, hcfg.clone());
        assert_eq!(harness.stop_at(), tl.stop, "harness window");
        ShardedSim::new_sequential(fabric, Probed::new(harness, tl, vec![server]))
    });
    let (d, in_flight) = drive(
        &mut sim,
        tl,
        &[server],
        |s, t| s.run_sequential(t),
        |s| s.logic(0).inner.in_flight(),
    );
    let probed = sim.logic(0);
    let h = &probed.inner;
    let m = &h.metrics;
    let (rotations, groups) = h.transport.inner.rotations_groups();
    let stages = stage_latencies(sim.fabric(0), tl);
    Outcome {
        setup_s,
        slices_s: d.slices_s,
        window_slices: d.window_slices,
        events: d.events,
        window: run,
        ops: m.ops,
        latency: m.batch_latency.clone(),
        unfinished: in_flight,
        attempted: m.ops + in_flight,
        issued: h.issued(),
        completed: h.completed(),
        retries: h.retries(),
        stuck: h.in_flight(),
        locks_held: 0,
        counters: d.counters,
        model: d.model,
        rotations,
        groups,
        tx_attempts: 0,
        logic: probed.time,
        transport: h.transport.time,
        handler: h.transport.inner.handler_time(),
        busy_nanos: probed.busy_nanos(),
        alloc: d.alloc,
        stages,
    }
}

/// Per-stage durations of the spans that start inside the window.
fn stage_latencies(fabric: &Fabric, tl: Timeline) -> Vec<(Stage, Histogram)> {
    let Some(log) = fabric.tracer().snapshot() else {
        return Vec::new();
    };
    let mut hists: Vec<(Stage, Histogram)> =
        Stage::ALL.iter().map(|&s| (s, Histogram::new())).collect();
    for span in &log.spans {
        if span.start > tl.warmup_end && span.start <= tl.stop {
            // Stage::ALL lists every stage, in declaration order.
            hists[span.stage as usize]
                .1
                .record_duration(span.duration());
        }
    }
    hists
}

/// The transaction deployment: ScaleTX over ScaleRPC, object store.
pub fn tx_config(seed: u64) -> TxConfig {
    TxConfig {
        coordinators: 160,
        servers: 3,
        client_machines: 8,
        workload: TxWorkload::ObjectStore {
            reads: 3,
            writes: 1,
            keys_per_server: 10_000,
            servers: 3,
        },
        one_sided: true,
        value_size: 40,
        keys_per_server: 10_000,
        initial_balance: 1_000,
        warmup: SimDuration::millis(2),
        run: SimDuration::millis(6),
        coord_cpu_mult: 8,
        window: 4,
        seed,
    }
}

/// Transactions still in flight at the stop can need several group
/// rotations (1.6 ms each at this operating point) to finish.
const TX_DRAIN: SimDuration = SimDuration::millis(10);

type TxTransport = Timed<ScaleRpc<Timed<scaletx::TxParticipant>>>;

fn tx(seed: u64, setups: usize) -> Outcome {
    let cfg = tx_config(seed);
    let tl = Timeline {
        warmup_end: SimTime::ZERO + cfg.warmup,
        stop: SimTime::ZERO + cfg.warmup + cfg.run,
        drain_end: SimTime::ZERO + cfg.warmup + cfg.run + TX_DRAIN,
    };
    let mut servers = Vec::new();
    let (mut sim, setup_s) = timed_setups(setups, || {
        let mut fabric = Fabric::new(FabricParams::default());
        let window = cfg.window;
        servers.clear();
        // As `scaletx::run_scalerpc_tx` with no stagger, but with every
        // layer wrapped in its probe.
        let sim = TxSim::build(&mut fabric, cfg.clone(), |fabric, cluster, part, _| {
            servers.push(cluster.server);
            let mut sc = scaletx::tx_scale_cfg();
            sc.client_window = sc.client_window.max(window.min(sc.slots));
            Timed::new(ScaleRpc::new(fabric, cluster, sc, Timed::new(part)))
        });
        assert_eq!(sim.stop_at(), tl.stop, "transaction window");
        ShardedSim::new_sequential(fabric, Probed::new(sim, tl, servers.clone()))
    });
    let (d, busy_at_stop) = drive(
        &mut sim,
        tl,
        &servers,
        |s, t| s.run_sequential(t),
        |s| s.logic(0).inner.busy_slots() as u64,
    );
    let probed = sim.logic(0);
    let txs: &TxSim<TxTransport> = &probed.inner;
    let m = &txs.metrics;
    let slot_bytes = mica_kv::KvTable::slot_bytes_for(cfg.value_size);
    let mut locks_held = 0;
    for &mr in &txs.kv_mrs {
        let mem = sim.fabric(0).mr(mr).expect("kv region").as_slice();
        locks_held += (0..mem.len() / slot_bytes)
            .filter(|i| read_lock(mem, i * slot_bytes) != 0)
            .count() as u64;
    }
    let sum = |f: fn(&TxTransport) -> u64| txs.transports.iter().map(f).sum::<u64>();
    let layer = |f: fn(&TxTransport) -> LayerTime| {
        txs.transports
            .iter()
            .fold(LayerTime::default(), |a, t| a.plus(f(t)))
    };
    let attempted = m.attempts() + busy_at_stop;
    Outcome {
        setup_s,
        slices_s: d.slices_s,
        window_slices: d.window_slices,
        events: d.events,
        window: cfg.run,
        ops: m.committed,
        latency: m.latency.clone(),
        unfinished: m.aborted + busy_at_stop,
        attempted,
        issued: sum(|t| t.submitted),
        completed: sum(|t| t.responses),
        retries: m.aborted,
        stuck: txs.busy_slots() as u64,
        locks_held,
        counters: d.counters,
        model: d.model,
        rotations: sum(|t| t.inner.rotations() as u64),
        groups: sum(|t| t.inner.plan().groups.len() as u64),
        tx_attempts: m.attempts(),
        logic: probed.time,
        transport: layer(|t| t.time),
        handler: layer(|t| t.inner.handler().time),
        busy_nanos: probed.busy_nanos(),
        alloc: d.alloc,
        stages: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalerpc_bench::rpcbench::{run_rpc, RpcRunConfig, TransportKind};

    #[test]
    fn hub_runs_reproduce_the_repository_rpc_runner() {
        let hubs = [
            (
                Workload::RpcScaleRpc,
                TransportKind::ScaleRpc(ScaleRpcConfig::default()),
                8,
                1,
                SCALERPC_RUN,
            ),
            (
                Workload::RpcRawWrite,
                TransportKind::RawWrite,
                1,
                4,
                RAWWRITE_RUN,
            ),
        ];
        for (w, kind, batch, window, run) in hubs {
            let ours = instance(w, 11, 1);
            let theirs = run_rpc(RpcRunConfig {
                kind,
                clients: 400,
                batch,
                window,
                warmup: RPC_WARMUP,
                run,
                seed: 11,
                ..Default::default()
            });
            assert_eq!(ours.ops, theirs.ops, "{}", w.name());
            assert_eq!(ours.events, theirs.events, "{}", w.name());
            assert_eq!(ours.latency.median() as f64 / 1e3, theirs.median_us);
            assert_eq!(ours.issued, ours.completed, "{}", w.name());
        }
    }

    #[test]
    fn tx_run_reproduces_the_repository_tx_runner() {
        let ours = instance(Workload::Tx, 5, 1);
        let sim =
            scaletx::run_scalerpc_tx(tx_config(5), scaletx::tx_scale_cfg(), SimDuration::ZERO);
        let m = &sim.logic(0).metrics;
        assert_eq!(ours.ops, m.committed);
        assert_eq!(ours.tx_attempts, m.attempts());
        assert_eq!(ours.latency.quantile(0.99), m.latency.quantile(0.99));
        assert_eq!((ours.stuck, ours.locks_held), (0, 0));
    }

    #[test]
    fn populations_derive_their_seeds_from_the_run_seed() {
        assert_eq!(Workload::RpcScaleRpc.instances(), 8);
        let outs = run(Workload::RpcRawWrite, 11, 1, u64::MAX);
        assert_eq!(outs.len(), 1);
        assert_eq!(
            outs[0].events,
            instance(Workload::RpcRawWrite, 11, 1).events
        );
        let first = run(Workload::Tx, 11, 1, 1);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].events, instance(Workload::Tx, 33, 1).events);
    }
}
