//! Percentile selection, ratios with explicit bases, and the server-node
//! model counters read over the measured window.

use rdma_fabric::NodeId;
use rpc_core::{Logic, ShardedSim};
use simcore::stats::{CounterSet, Histogram};
use simcore::SimDuration;

/// A latency percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_SAMPLES: u64 = 10;

/// Samples strictly beyond quantile `q` of `n` samples, using the same
/// rank rule as [`Histogram::quantile`] (rank `ceil(q * n)`, at least 1).
pub fn samples_beyond(n: u64, q: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    n - rank
}

/// Quantile `q` of `h` in microseconds, or an error naming the sample
/// count when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile_us(h: &Histogram, q: f64) -> Result<f64, String> {
    let beyond = samples_beyond(h.count(), q);
    if beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {TAIL_SAMPLES} samples beyond it; {} samples leave {beyond}",
            q * 100.0,
            h.count()
        ));
    }
    Ok(interpolated_ns(h, q) / 1e3)
}

/// Quantile `q` of `h` in nanoseconds, interpolated linearly inside the
/// bucket that holds rank `q * n`. `Histogram::quantile` reads the
/// bucket's upper edge, so runs whose samples differ would often report
/// the same value.
fn interpolated_ns(h: &Histogram, q: f64) -> f64 {
    let n = h.count() as f64;
    let rank = q * n;
    let mut below = 0.0;
    for point in h.cdf() {
        let upto = point.fraction * n;
        if upto >= rank {
            let hi = point.value;
            let lo = bucket_floor(hi).max(h.min());
            let share = if upto > below {
                (rank - below) / (upto - below)
            } else {
                1.0
            };
            return lo as f64 + share * (hi - lo) as f64;
        }
        below = upto;
    }
    h.max() as f64
}

/// Lower edge of the `Histogram` bucket holding `v`: values below 64 have
/// a bucket each; above, every octave splits into 32 equal buckets.
fn bucket_floor(v: u64) -> u64 {
    if v < 64 {
        return v;
    }
    let width = 1u64 << (63 - v.leading_zeros() - 5);
    v - v % width
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counters and NIC busy time of the server nodes at one instant.
pub struct ServerSnap {
    counters: Vec<CounterSet>,
    busy: Vec<(SimDuration, SimDuration)>,
}

impl ServerSnap {
    /// Reads every server node from the shard that owns it.
    pub fn take<L: Logic>(sim: &ShardedSim<L>, servers: &[NodeId]) -> Self {
        let fabric = |n: NodeId| sim.fabric(sim.shard_of(n));
        ServerSnap {
            counters: servers
                .iter()
                .map(|&n| fabric(n).counters(n).expect("server node").snapshot())
                .collect(),
            busy: servers
                .iter()
                .map(|&n| fabric(n).nic_busy(n).expect("server node"))
                .collect(),
        }
    }

    /// Counters summed over the server nodes.
    pub fn total(&self) -> CounterSet {
        let mut sum = CounterSet::new();
        for c in &self.counters {
            sum.merge(c);
        }
        sum
    }
}

/// Model counters of the server nodes over the measured window.
#[derive(Clone, Debug)]
pub struct Model {
    /// Counter deltas summed over the server nodes.
    pub delta: CounterSet,
    /// NIC transmit-engine busy time, summed over the server nodes.
    pub tx_busy: SimDuration,
    /// NIC receive-engine busy time, summed over the server nodes.
    pub rx_busy: SimDuration,
    /// CPU-side LLC miss rate of each server node, whose statistics
    /// restart when the window opens.
    pub llc_cpu_miss: Vec<f64>,
    /// Server nodes per instance.
    pub servers: usize,
}

impl Model {
    /// The window between two snapshots; `llc_cpu_miss` is read from the
    /// fabric at the window's end.
    pub fn between(before: &ServerSnap, after: &ServerSnap, llc_cpu_miss: Vec<f64>) -> Model {
        let mut delta = CounterSet::new();
        for (a, b) in after.counters.iter().zip(&before.counters) {
            delta.merge(&a.delta_since(b));
        }
        let busy = |pick: fn(&(SimDuration, SimDuration)) -> SimDuration| {
            after
                .busy
                .iter()
                .zip(&before.busy)
                .map(|(a, b)| pick(a) - pick(b))
                .fold(SimDuration::ZERO, |x, y| x + y)
        };
        Model {
            delta,
            tx_busy: busy(|b| b.0),
            rx_busy: busy(|b| b.1),
            llc_cpu_miss,
            servers: after.counters.len(),
        }
    }

    /// Adds another instance's window of the same workload.
    pub fn merge(&mut self, other: &Model) {
        self.delta.merge(&other.delta);
        self.tx_busy += other.tx_busy;
        self.rx_busy += other.rx_busy;
        self.llc_cpu_miss.extend_from_slice(&other.llc_cpu_miss);
    }

    /// Mean CPU-side LLC miss rate over server nodes (and instances).
    pub fn llc_cpu_miss_mean(&self) -> f64 {
        self.llc_cpu_miss.iter().sum::<f64>() / self.llc_cpu_miss.len().max(1) as f64
    }

    /// QP-context cache hit ratio; base: verbs the server nodes posted.
    pub fn qp_hit_ratio(&self) -> f64 {
        let posted = self.delta.get("TxVerbs");
        if posted == 0 {
            0.0
        } else {
            1.0 - ratio(self.delta.get("NicQpMiss"), posted)
        }
    }

    /// DMA writes that hit the LLC; base: cache lines DMA-written.
    pub fn dma_hit_ratio(&self) -> f64 {
        let lines = self.delta.get("ItoM") + self.delta.get("RFO");
        if lines == 0 {
            0.0
        } else {
            1.0 - ratio(self.delta.get("PCIeItoM"), lines)
        }
    }

    /// Busy share of one NIC engine; base: window length (summed over
    /// instances) times server nodes per instance.
    pub fn busy_ratio(&self, busy: SimDuration, window: SimDuration) -> f64 {
        ratio(busy.as_nanos(), window.as_nanos() * self.servers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(n: u64) -> Histogram {
        let mut h = Histogram::new();
        for v in 1..=n {
            h.record(v * 1_000);
        }
        h
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert!(percentile_us(&hist(10_000), 0.999).is_ok());
        let err = percentile_us(&hist(9_999), 0.999).unwrap_err();
        assert!(err.contains("9999 samples leave 9"), "{err}");
        assert!(percentile_us(&hist(999), 0.99).is_err());
        assert!(percentile_us(&hist(20), 0.5).is_ok());
    }

    #[test]
    fn percentiles_interpolate_inside_their_bucket() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(143_275);
        }
        assert_eq!(interpolated_ns(&h, 0.5), 143_275.0);
        // Two sample sets with the same buckets, minimum and maximum, but
        // different counts: the upper edge cannot tell them apart.
        let split = |low: u64| {
            let mut h = Histogram::new();
            for v in 0..1_000u64 {
                h.record(if v < low { 100_000 } else { 101_000 });
            }
            h
        };
        let (a, b) = (split(400), split(450));
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(interpolated_ns(&a, 0.5), 100_352.0 + 648.0 / 6.0);
        assert_eq!(interpolated_ns(&b, 0.5), 100_352.0 + 648.0 * 50.0 / 550.0);
        assert_eq!(bucket_floor(63), 63);
        assert_eq!(bucket_floor(64), 64);
        assert_eq!(bucket_floor(143_359), 139_264);
        assert_eq!(bucket_floor(143_360), 143_360);
    }

    #[test]
    fn percentiles_are_in_microseconds() {
        let h = hist(2_000);
        let p50 = percentile_us(&h, 0.5).unwrap();
        assert!((990.0..=1_020.0).contains(&p50), "{p50}");
        let p99 = percentile_us(&h, 0.99).unwrap();
        assert!(p99 > p50 && p99 <= 2_000.0, "{p99}");
    }

    #[test]
    fn ratios_use_their_stated_bases() {
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(3, 0), 0.0);
        let mut delta = CounterSet::new();
        delta.add("TxVerbs", 200);
        delta.add("NicQpMiss", 50);
        delta.add("ItoM", 90);
        delta.add("RFO", 10);
        delta.add("PCIeItoM", 25);
        let m = Model {
            delta,
            tx_busy: SimDuration::micros(30),
            rx_busy: SimDuration::micros(10),
            llc_cpu_miss: vec![0.25, 0.75],
            servers: 2,
        };
        assert_eq!(m.llc_cpu_miss_mean(), 0.5);
        assert_eq!(m.qp_hit_ratio(), 0.75);
        assert_eq!(m.dma_hit_ratio(), 0.75);
        assert_eq!(m.busy_ratio(m.tx_busy, SimDuration::micros(100)), 0.15);
        let empty = Model {
            delta: CounterSet::new(),
            ..m
        };
        assert_eq!(empty.qp_hit_ratio(), 0.0);
        assert_eq!(empty.dma_hit_ratio(), 0.0);
    }

    #[test]
    fn merged_windows_keep_their_bases() {
        let one = |miss: u64, busy: u64| {
            let mut delta = CounterSet::new();
            delta.add("TxVerbs", 100);
            delta.add("NicQpMiss", miss);
            Model {
                delta,
                tx_busy: SimDuration::micros(busy),
                rx_busy: SimDuration::ZERO,
                llc_cpu_miss: vec![0.1],
                servers: 1,
            }
        };
        let mut m = one(10, 50);
        m.merge(&one(30, 100));
        assert_eq!(m.qp_hit_ratio(), 0.8);
        assert_eq!(m.busy_ratio(m.tx_busy, SimDuration::micros(200)), 0.75);
        assert!((m.llc_cpu_miss_mean() - 0.1).abs() < 1e-12);
        assert_eq!(m.servers, 1);
    }
}
