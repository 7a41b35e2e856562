#!/usr/bin/env python3
"""The repository benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring binary from source (untraced, and for --trace 1
also the traced build), repeats the workload until --seconds of host
time are spent, checks every repeat's outputs, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer ledger. See README.md for what each workload and metric is.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = (
    "rpc_scalerpc_400c_b8",
    "rpc_rawwrite_400c_w4",
    "tx_objstore_160c",
)

# Each untraced repeat sets each population it runs up this many times;
# setup_s is the median over all set-ups of a run.
SETUPS_PER_REPEAT = 3
# Fewest repeats a run makes, however short --seconds is.
MIN_REPEATS = 2
# Populations an untraced repeat after the first one runs. The first
# repeat runs every population, for the simulated metrics; the others
# run the first population again and again, so that each of its slices
# gets many chances at a quiet host (see fastest).
TIMED_POPULATIONS = 1
# Host seconds of the reference kernel (reference.rs: all its chunks,
# each at its fastest repeat) on the host the bounds were set on, a
# two-vCPU shared Intel Xeon VM at 2.0 GHz. Host metrics are reported
# as they would read on a host running the kernel at that speed.
REFERENCE_S = 0.045


class BenchError(Exception):
    """A build, run or output check failed; no result may be printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(traced):
    """Builds the measuring binary and returns a stable copy of it."""
    cmd = ["cargo", "build", "--release", "--manifest-path", str(HERE / "Cargo.toml")]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Cargo's output goes to stderr so that stdout carries only results.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    built = target_dir() / "release" / "perfbench"
    # Both builds leave their binary at the same path; keep each apart.
    kept = target_dir() / ("perfbench-traced" if traced else "perfbench-untraced")
    shutil.copy2(built, kept)
    return kept


def run_once(binary, workload, seed, setups, populations=None):
    """One repeat: the binary's JSON report, or BenchError. It runs every
    population of the workload, or the first `populations`."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--setups", str(setups)]
    if populations is not None:
        cmd += ["--populations", str(populations)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check_fingerprints(reports):
    """Every repeat, traced or not, must reproduce the first one, which
    ran every population: each population it ran exactly, and the
    simulated metrics of every other repeat that ran as many."""
    full = reports[0]
    sims = {}
    for i, r in enumerate(reports):
        n = r["populations"]
        if len(r["fingerprint"]) != n or n > full["populations"]:
            raise BenchError(f"repeat {i} reports {len(r['fingerprint'])} of {n} populations")
        sim = sims.setdefault(n, r["sim"])
        diff = {k for k in sim if sim[k] != r["sim"].get(k)} | {
            k
            for a, b in zip(full["fingerprint"], r["fingerprint"])
            for k in set(a) | set(b)
            if a.get(k) != b.get(k)
        }
        if diff:
            raise BenchError(
                f"repeat {i} ({'traced' if r['build']['traced'] else 'untraced'}) "
                f"differs from repeat 0 in {', '.join(sorted(diff))}"
            )


def median(values):
    return statistics.median(values)


def metric(value, unit):
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        raise BenchError(f"non-finite metric value {value}")
    return {"value": v, "unit": unit}


# Units of the per-layer ledger, by metric name (stage metrics: "us").
LAYER_UNITS = {
    "engine_fabric.self_s": "s",
    "engine_fabric.ns_per_event": "ns",
    "harness.self_s": "s",
    "harness.callbacks": "count",
    "transport.self_s": "s",
    "transport.calls": "count",
    "handler.self_s": "s",
    "handler.calls": "count",
    "alloc.per_event": "count",
    "alloc.bytes_per_event": "B",
    "engine.events": "count",
    "harness.issued": "count",
    "harness.completed": "count",
    "harness.retries": "count",
    "nic.qp_hit_ratio": "ratio",
    "nic.pcie_rd_per_op": "count",
    "nic.tx_busy_ratio": "ratio",
    "nic.rx_busy_ratio": "ratio",
    "llc.itom_per_op": "count",
    "llc.dma_hit_ratio": "ratio",
    "llc.cpu_miss_ratio": "ratio",
    "scalerpc.rotations": "count",
    "scalerpc.groups": "count",
    "tx.commit_ratio": "ratio",
}


def pooled(reports, key):
    """Every population's value of `key` over a set of repeats."""
    return [v for r in reports for v in r[key]]


def timed_populations(reports):
    """The populations that every one of `reports` ran."""
    return range(min(r["populations"] for r in reports))


def fastest(reports, population, window=False):
    """Host seconds of one population's simulate phase (or, with
    `window`, of its measured window alone): the sum over its slices of
    simulated time of each slice's fastest repeat. Every repeat simulates
    the same slices exactly (check_fingerprints), so a slice's fastest
    repeat is the one least slowed by whatever else the host ran."""
    slices = zip(*(r["slices_s"][population] for r in reports))
    if window:
        start, end = reports[0]["window_slices"]
        slices = itertools.islice(slices, start, end)
    return sum(min(times) for times in slices)


def wall(reports):
    """wall_s: the median of `fastest` over the populations every
    repeat ran."""
    return median(fastest(reports, p) for p in timed_populations(reports))


def reference(reports):
    """The reference kernel's host seconds over a set of repeats: the sum
    of its chunks each at its fastest repeat, as `fastest` takes the
    slices, and the median over repeats of the sum."""
    chunks = zip(*(r["reference_s"] for r in reports))
    return (
        sum(min(times) for times in chunks),
        median(sum(r["reference_s"]) for r in reports),
    )


def end_to_end(untraced):
    """The end-to-end metrics of a set of untraced repeats. Host times
    are scaled by REFERENCE_S over the reference kernel's time in the
    same run, measured the same way: fastest for the simulate phase,
    median for set-up. A host that slows down for minutes slows the
    kernel too, and the ratio cancels most of it."""
    sim = untraced[0]["sim"]
    ref_fastest, ref_median = reference(untraced)
    rates = [
        untraced[0]["fingerprint"][p]["ops"] / fastest(untraced, p, window=True)
        for p in timed_populations(untraced)
    ]
    return {
        "wall_s": metric(wall(untraced) * REFERENCE_S / ref_fastest, "s"),
        "sim_ops_per_host_s": metric(median(rates) * ref_fastest / REFERENCE_S, "1/s"),
        "setup_s": metric(
            median(pooled(untraced, "setup_s")) * REFERENCE_S / ref_median, "s"
        ),
        "peak_rss_mb": metric(median(r["peak_rss_mb"] for r in untraced), "MiB"),
        "sim_mops": metric(sim["mops"], "Mops/s"),
        "sim_p50_us": metric(sim["p50_us"], "us"),
        "sim_p99_us": metric(sim["p99_us"], "us"),
        "sim_p999_us": metric(sim["p999_us"], "us"),
        "failed_ratio": metric(sim["failed_ratio"], "ratio"),
    }


def per_layer(untraced, traced):
    """The per-layer ledger: medians over traced repeats."""
    out = {}
    for name in traced[0]["layers"]:
        unit = LAYER_UNITS.get(name, "us" if name.startswith("stage.") else None)
        if unit is None:
            raise BenchError(f"layer metric {name} has no unit")
        out[name] = metric(median(r["layers"][name] for r in traced), unit)
    out["trace.overhead_ratio"] = metric(wall(traced) / wall(untraced), "ratio")
    return out


def counts(reports):
    """attempted: simulated requests issued over all repeats; failed:
    those that never completed (the binary already rejects any)."""
    issued = sum(f["issued"] for r in reports for f in r["fingerprint"])
    completed = sum(f["completed"] for r in reports for f in r["fingerprint"])
    return issued, issued - completed


def source_digest():
    """A digest of the sources the benchmark builds from, standing in for
    the commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p
            for p in (ROOT / top).rglob("*")
            if p.is_file()
            and p.suffix in (".rs", ".toml", ".py", ".lock")
            and "target" not in p.parts
        )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(workload, seed, seconds, trace):
    """Runs the repeats and returns (metrics, reports)."""
    untraced_bin = build(traced=False)
    traced_bin = build(traced=True) if trace else None
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        if trace:
            # Every repeat runs every population, whose layers the ledger
            # sums; the two builds alternate so drift in host speed hits
            # both.
            untraced.append(run_once(untraced_bin, workload, seed, 1))
            traced.append(run_once(traced_bin, workload, seed, 1))
        else:
            populations = TIMED_POPULATIONS if untraced else None
            untraced.append(
                run_once(untraced_bin, workload, seed, SETUPS_PER_REPEAT, populations)
            )
        done = len(untraced) >= (1 if trace else MIN_REPEATS) and (
            time.monotonic() - start >= seconds
        )
        if done:
            break
    check_fingerprints(untraced + traced)
    if trace:
        return per_layer(untraced, traced), untraced + traced
    return end_to_end(untraced), untraced


def result_line(metrics, reports):
    attempted, failed = counts(reports)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        metrics, reports = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log(str(e))
        return 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repeats": {
            "untraced": sum(not r["build"]["traced"] for r in reports),
            "traced": sum(r["build"]["traced"] for r in reports),
        },
        "setups_per_repeat": 1 if args.trace else SETUPS_PER_REPEAT,
        "populations": {
            "first_repeat": reports[0]["populations"],
            "later_repeats": reports[-1]["populations"],
        },
        "reference_s": {
            "fastest": reference(reports)[0],
            "median": reference(reports)[1],
            "nominal": REFERENCE_S,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "build": {
            "profile": reports[0]["build"]["profile"],
            "features": {"untraced": [], **({"traced": ["trace"]} if args.trace else {})},
        },
        "commit": commit(),
        "source_digest": source_digest(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result_line(metrics, reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
