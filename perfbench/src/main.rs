//! One measured run of one benchmark workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--setups <k>] [--populations <p>]
//! ```
//!
//! Runs every population of the workload, or the first `p`: sets each
//! up `k` times (timing each), simulates the last set-up and checks its
//! outputs. Then times the reference kernel (`reference.rs`). Prints one
//! JSON document: host timings per population (each set-up, and each
//! slice of simulated time), the simulated metrics pooled over
//! populations, a fingerprint per population that must repeat exactly,
//! the reference kernel's host times, and (meaningful in the traced
//! build) the per-layer ledger. `run.py` drives this binary; see
//! README.md.

mod alloc;
mod probe;
mod reference;
mod stats;
mod workloads;

use scalerpc_bench::json::Json;
use stats::{percentile_us, ratio};
use workloads::{Outcome, Workload};

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> [--setups <k>] [--populations <p>]",
        names.join("|")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    setups: usize,
    populations: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut setups = 1;
    let mut populations = u64::MAX;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--setups" => {
                setups = value.parse().map_err(|e| format!("--setups: {e}"))?;
                if setups == 0 {
                    return Err("--setups must be at least 1".into());
                }
            }
            "--populations" => {
                populations = value.parse().map_err(|e| format!("--populations: {e}"))?;
                if populations == 0 {
                    return Err("--populations must be at least 1".into());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        setups,
        populations,
    })
}

/// Peak resident set of this process in MiB, from the kernel's VmHWM.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The outputs every correct population must satisfy.
fn check(o: &Outcome) -> Result<(), String> {
    if o.ops == 0 {
        return Err("no operation completed in the window".into());
    }
    if o.stuck != 0 {
        return Err(format!(
            "{} requests still outstanding after the drain",
            o.stuck
        ));
    }
    if o.issued != o.completed {
        return Err(format!(
            "issued {} but completed {} after the drain",
            o.issued, o.completed
        ));
    }
    if o.locks_held != 0 {
        return Err(format!(
            "{} KV locks still held after the drain",
            o.locks_held
        ));
    }
    Ok(())
}

fn num(v: f64) -> Json {
    Json::num(v)
}

fn int(v: u64) -> Json {
    Json::num(v as f64)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What one population must reproduce exactly on every repeat.
fn fingerprint(o: &Outcome) -> Json {
    obj(vec![
        ("events", int(o.events)),
        ("ops", int(o.ops)),
        ("issued", int(o.issued)),
        ("completed", int(o.completed)),
        ("retries", int(o.retries)),
        ("unfinished", int(o.unfinished)),
        ("attempted", int(o.attempted)),
        ("rotations", int(o.rotations)),
        ("groups", int(o.groups)),
        (
            "server_counters",
            Json::Obj(
                o.counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), int(v)))
                    .collect(),
            ),
        ),
    ])
}

fn report(args: &Args, outs: Vec<Outcome>) -> Result<Json, String> {
    let w = args.workload;
    let slices = Json::Arr(
        outs.iter()
            .map(|o| Json::Arr(o.slices_s.iter().map(|&s| num(s)).collect()))
            .collect(),
    );
    let window = outs
        .first()
        .ok_or("no population ran")?
        .window_slices
        .clone();
    let fingerprints = Json::Arr(outs.iter().map(fingerprint).collect());
    let mut outs = outs.into_iter();
    let mut o = outs.next().ok_or("no population ran")?;
    for other in outs {
        o.absorb(&other);
    }
    let o = &o;
    let secs = o.window.as_secs_f64();
    let sim = obj(vec![
        ("mops", num(o.ops as f64 / secs / 1e6)),
        ("p50_us", num(percentile_us(&o.latency, 0.5)?)),
        ("p99_us", num(percentile_us(&o.latency, 0.99)?)),
        ("p999_us", num(percentile_us(&o.latency, 0.999)?)),
        ("latency_samples", int(o.latency.count())),
        ("latency_kind", Json::str(w.latency_kind())),
        ("failed_ratio", num(ratio(o.unfinished, o.attempted))),
    ]);
    let engine_nanos = o.busy_nanos.saturating_sub(o.logic.nanos);
    let (allocs, bytes) = o.alloc.unwrap_or((0, 0));
    let m = &o.model;
    let mut layers = vec![
        ("engine_fabric.self_s", num(engine_nanos as f64 / 1e9)),
        (
            "engine_fabric.ns_per_event",
            num(ratio(engine_nanos, o.events)),
        ),
        ("harness.self_s", num(o.logic.secs() - o.transport.secs())),
        ("harness.callbacks", int(o.logic.calls)),
        (
            "transport.self_s",
            num(o.transport.secs() - o.handler.secs()),
        ),
        ("transport.calls", int(o.transport.calls)),
        ("handler.self_s", num(o.handler.secs())),
        ("handler.calls", int(o.handler.calls)),
        ("alloc.per_event", num(ratio(allocs, o.events))),
        ("alloc.bytes_per_event", num(ratio(bytes, o.events))),
        ("engine.events", int(o.events)),
        ("harness.issued", int(o.issued)),
        ("harness.completed", int(o.completed)),
        ("harness.retries", int(o.retries)),
        ("nic.qp_hit_ratio", num(m.qp_hit_ratio())),
        (
            "nic.pcie_rd_per_op",
            num(ratio(m.delta.get("PCIeRdCur"), o.ops)),
        ),
        ("nic.tx_busy_ratio", num(m.busy_ratio(m.tx_busy, o.window))),
        ("nic.rx_busy_ratio", num(m.busy_ratio(m.rx_busy, o.window))),
        (
            "llc.itom_per_op",
            num(ratio(m.delta.get("PCIeItoM"), o.ops)),
        ),
        ("llc.dma_hit_ratio", num(m.dma_hit_ratio())),
        ("llc.cpu_miss_ratio", num(m.llc_cpu_miss_mean())),
        ("scalerpc.rotations", int(o.rotations)),
        ("scalerpc.groups", int(o.groups)),
        ("tx.commit_ratio", num(ratio(o.ops, o.tx_attempts))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect::<Vec<_>>();
    for stage in simtrace::Stage::ALL {
        let hist = o.stages.iter().find(|(s, _)| *s == stage).map(|(_, h)| h);
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let v = match hist {
                Some(h) => percentile_us(h, q).map_err(|e| format!("{}: {e}", stage.name()))?,
                None => 0.0,
            };
            layers.push((format!("stage.{}.{label}_us", stage.name()), num(v)));
        }
    }
    Ok(obj(vec![
        ("workload", Json::str(w.name())),
        ("seed", int(args.seed)),
        (
            "build",
            obj(vec![
                (
                    "profile",
                    Json::str(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("traced", Json::Bool(probe::TIMED)),
            ]),
        ),
        ("populations", int(args.populations.min(w.instances()))),
        (
            "setup_s",
            Json::Arr(o.setup_s.iter().map(|&s| num(s)).collect()),
        ),
        ("slices_s", slices),
        (
            "reference_s",
            Json::Arr(reference::chunks().into_iter().map(num).collect()),
        ),
        (
            "window_slices",
            Json::Arr(vec![int(window.start as u64), int(window.end as u64)]),
        ),
        ("peak_rss_mb", num(peak_rss_mb()?)),
        ("sim", sim),
        ("fingerprint", fingerprints),
        ("layers", Json::Obj(layers)),
    ]))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv)
        .map_err(|e| format!("{e}\n{}", usage()))
        .and_then(|args| {
            let outs = workloads::run(args.workload, args.seed, args.setups, args.populations);
            outs.iter().try_for_each(check)?;
            report(&args, outs)
        });
    match result {
        Ok(json) => print!("{}", json.pretty()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload tx_objstore_160c --seed 7").unwrap();
        assert_eq!((a.workload, a.seed, a.setups), (Workload::Tx, 7, 1));
        assert_eq!(
            args("--seed 7 --workload rpc_rawwrite_400c_w4 --setups 3")
                .unwrap()
                .setups,
            3
        );
        assert!(args("--workload nope --seed 7").is_err());
        assert!(args("--workload tx_objstore_160c").is_err());
        assert!(args("--workload tx_objstore_160c --seed -1").is_err());
        assert!(args("--workload tx_objstore_160c --seed 7 --setups 0").is_err());
        let a = args("--workload tx_objstore_160c --seed 7 --populations 1").unwrap();
        assert_eq!((a.populations, a.setups), (1, 1));
        assert!(args("--workload tx_objstore_160c --seed 7 --populations 0").is_err());
        assert!(args("--workload tx_objstore_160c --seed").is_err());
    }
}
