"""Repository benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload driver-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that shims every layer, reports the
per-layer metrics and the tracing overhead, and writes a Chrome trace.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
name every metric with its unit, the host, and a digest of the simulated
outputs.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")

WORKLOADS = ("driver-closed", "lanes-tagged", "fleet-steady", "fleet-chaos")

END_TO_END = (
    ("setup_s", "s"),
    ("blocks_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_block", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
)

PER_LAYER = (
    ("hdl.elaborate.calls", "count"), ("hdl.elaborate.s", "s"),
    ("hdl.fingerprint.calls", "count"), ("hdl.fingerprint.s", "s"),
    ("synth.calls", "count"), ("synth.s", "s"), ("synth.nets_out", "count"),
    ("codegen.compiled.s", "s"), ("codegen.batched.s", "s"),
    ("codegen.hits", "count"), ("codegen.misses", "count"),
    ("engine.step.cycles", "cycles"), ("engine.step.s", "s"),
    ("engine.settle.calls", "count"), ("engine.settle.s", "s"),
    ("engine.settle_per_cycle", "ratio"),
    ("engine.peek.calls", "count"), ("engine.peek.s", "s"),
    ("engine.poke.calls", "count"), ("engine.poke.s", "s"),
    ("engine.resolve.calls", "count"), ("engine.resolve.s", "s"),
    ("batched.step.cycles", "cycles"), ("batched.step.s", "s"),
    ("batched.settle.calls", "count"), ("batched.settle.s", "s"),
    ("batched.io.calls", "count"), ("batched.io.s", "s"),
    ("driver.issue.calls", "count"), ("driver.issue.s", "s"),
    ("driver.issue.wait_cycles", "cycles"), ("driver.step.s", "s"),
    ("driver.provision.calls", "count"), ("driver.provision.s", "s"),
    ("shard.tick.cycles", "cycles"), ("shard.tick.s", "s"),
    ("shard.round.calls", "count"), ("shard.round.s", "s"),
    ("fleet.round.calls", "count"), ("fleet.round.s", "s"),
    ("fleet.pipe.wait_s", "s"), ("fleet.coord.s", "s"),
    ("fleet.spawn.calls", "count"), ("fleet.spawn.s", "s"),
    ("fleet.dispatched", "count"), ("fleet.useful_ratio", "ratio"),
    ("fleet.retries", "count"), ("fleet.deferrals", "count"),
    ("fleet.shed", "count"), ("fleet.forced", "count"),
    ("trace.overhead", "ratio"),
)

#: host seconds of reference-loop slices before each cold set-up and after
#: the last, from which ``setup_s`` is scaled to the reference host
SETUP_CALIBRATE_S = 0.1

#: a traced run measures for this share of ``--seconds`` and then replays
#: the same ops untraced, so it takes about as long as an untraced run
TRACED_SHARE = 0.5


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the numpy default definition)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set (ru_maxrss is in KiB on Linux): this process,
    plus the largest child already reaped when ``with_children``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def host_metadata() -> dict:
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        import subprocess

        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def make_workload(name: str, seed: int):
    import workloads

    cls = {"driver-closed": workloads.DriverClosed,
           "lanes-tagged": workloads.LanesTagged,
           "fleet-steady": workloads.FleetSteady,
           "fleet-chaos": workloads.FleetChaos}[name]
    return cls(seed)


def quiet_gc() -> None:
    """Collect now and move what survives out of the collector's reach, so
    that full collections in the window do not rescan the set-up's heap."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(wl, seconds: float):
    """Untraced run; returns (result, metrics, notes).

    Host-time metrics are scaled to the reference host (see
    ``hostspeed.py``); the notes carry them as measured.
    """
    import hostspeed

    speed = hostspeed.HostSpeed()
    fleet = wl.fleet
    if fleet:
        quiet_gc()
        res = wl.run(wl.episodes(seconds), "process", speed=speed)
        setups = res.extra["setup_s"]
        setup_speed = speed
        setup_note = f"median of {len(setups)} fleet bring-ups"
    else:
        setups = []
        setup_speed = hostspeed.HostSpeed()
        for _ in range(wl.setup_reps):
            rig = None   # release the previous rig before building anew
            setup_speed.calibrate(SETUP_CALIBRATE_S)
            t0 = perf_counter()
            rig = wl.setup()
            setups.append(perf_counter() - t0)
        setup_speed.calibrate(SETUP_CALIBRATE_S)
        setup_note = f"median of {len(setups)} cold set-ups"
        quiet_gc()
        res = wl.run(rig, seconds=seconds, speed=speed)
    ops = res.op_s
    rel, setup_rel = speed.relative(), setup_speed.relative()
    beyond = sum(1 for x in ops if x > percentile(ops, wl.tail_pct))
    measured = {
        "setup_s": median(setups),
        "blocks_per_s": res.verified / res.window_s,
        "sim_cycles_per_s": res.sim_cycles / res.window_s,
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_tail_ms": percentile(ops, wl.tail_pct) * 1e3,
    }
    metrics = {
        "setup_s": measured["setup_s"] * setup_rel,
        "blocks_per_s": measured["blocks_per_s"] / rel,
        "sim_cycles_per_s": measured["sim_cycles_per_s"] / rel,
        "op_p50_ms": measured["op_p50_ms"] * rel,
        "op_tail_ms": measured["op_tail_ms"] * rel,
        "success_ratio": res.verified / max(1, res.offered),
        "peak_rss_mb": peak_rss_mb(with_children=fleet),
        "sim_cycles_per_block": (res.sim_prefix_cycles
                                 / max(1, res.sim_prefix_blocks)),
        "sim_latency_p99_cycles": percentile(res.sim_latencies, 99),
    }
    unit = wl.op_unit
    notes = {
        "setup_s": setup_note,
        "blocks_per_s": f"{res.verified} verified in {res.window_s:.2f} s",
        "sim_cycles_per_s": f"{res.sim_cycles} simulated cycles",
        "op_p50_ms": f"{len(ops)} {unit}",
        "op_tail_ms": (f"p{wl.tail_pct} of {len(ops)} {unit}; "
                       f"{beyond} samples beyond it"
                       + ("" if beyond >= 10 else " (fewer than 10!)")),
        "success_ratio": "1 - fail_ratio",
        "fail_ratio": (f"{res.offered - res.verified} of {res.offered} "
                       "failed or refused; the JSON carries success_ratio"),
        "peak_rss_mb": ("coordinator plus largest worker" if fleet
                        else "this process"),
        "sim_cycles_per_block": (f"simulated, first {res.sim_ops} "
                                 + ("episodes" if fleet else unit)),
        "sim_latency_p99_cycles": (f"simulated, issue to delivery, "
                                   f"{len(res.sim_latencies)} samples"),
    }
    for name, value in measured.items():
        notes[name] = f"measured {value:.6g}; " + notes[name]
    window = res.window_s + speed.spent
    notes["host_speed"] = (
        f"reference loop at {rel:.4f}x the reference host in the window "
        f"({speed.spent / window:.1%} of it), {setup_rel:.4f}x in set-up")
    return res, metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _layer_metrics(probe, cache, overhead: float) -> dict:
    m = {}
    for name in ("hdl.elaborate", "hdl.fingerprint", "engine.settle",
                 "engine.peek", "engine.poke", "engine.resolve",
                 "batched.settle", "batched.io", "driver.issue",
                 "driver.provision", "shard.round", "fleet.spawn"):
        m[f"{name}.calls"] = probe.calls(name)
        m[f"{name}.s"] = probe.self_s(name)
    for name in ("codegen.compiled", "codegen.batched", "engine.step",
                 "batched.step", "driver.step", "shard.tick"):
        m[f"{name}.s"] = probe.self_s(name)
    m["synth.calls"] = probe.calls("synth")
    m["synth.s"] = probe.self_s("synth")
    for key in ("synth.nets_out", "engine.step.cycles", "batched.step.cycles",
                "driver.issue.wait_cycles", "shard.tick.cycles"):
        m[key] = probe.counts.get(key, 0)
    m["engine.settle_per_cycle"] = (m["engine.settle.calls"]
                                    / max(1, m["engine.step.cycles"]))
    m["codegen.hits"] = cache["hits"]
    m["codegen.misses"] = cache["misses"]
    m["trace.overhead"] = overhead
    return m


def _fleet_counts(res) -> dict:
    fleets = [o["fleet"] for o in res.extra.get("outcomes", ())]
    dispatched = sum(r.attempts for f in fleets for r in f.requests)
    delivered = sum(1 for f in fleets for r in f.requests
                    if r.status == "delivered")
    return {
        "fleet.round.calls": sum(f.rounds_run for f in fleets),
        "fleet.dispatched": dispatched,
        "fleet.useful_ratio": delivered / dispatched if dispatched else 0.0,
        "fleet.retries": sum(f.retries for f in fleets),
        "fleet.deferrals": sum(f.deferrals for f in fleets),
        "fleet.shed": sum(f.shed for f in fleets),
        "fleet.forced": sum(f.forced for f in fleets),
    }


def traced(wl, seconds: float, trace_path: str):
    """Traced run plus an untraced replay of the same ops.

    Returns (traced result, per-layer metrics, extra problems).
    """
    import layers
    import workloads

    seconds *= TRACED_SHARE
    problems = []
    probe = layers.LayerProbe()
    if wl.fleet:
        episodes = wl.episodes(seconds)
        workloads.clear_code_caches()
        layers.install_all(probe)
        try:
            res = wl.run(episodes, "inline")
            cache = layers.cache_stats()
        finally:
            probe.remove()
        plain = wl.run(episodes, "inline")
        coord = layers.LayerProbe()
        layers.install_coordinator(coord)
        try:
            n_proc = min(episodes, wl.digest_ops)
            proc = wl.run(n_proc, "process")
        finally:
            coord.remove()
        if proc.digest() != plain.digest(n_proc):
            problems.append("fleet: inline and process-worker runs differ")
    else:
        layers.install_all(probe)
        try:
            rig = wl.setup()
            res = wl.run(rig, seconds=seconds)
            cache = layers.cache_stats()
        finally:
            probe.remove()
        rig = None   # release the traced rig before building the next
        plain = wl.run(wl.setup(), ops=res.ops)
        coord = layers.LayerProbe()   # no process-worker pass
    m = _layer_metrics(probe, cache, res.window_s / plain.window_s)
    m.update(_fleet_counts(res))
    m["fleet.round.s"] = probe.self_s("fleet.run")
    m["fleet.pipe.wait_s"] = coord.total_s("fleet.pipe.wait")
    m["fleet.coord.s"] = coord.self_s("fleet.run")
    if res.digest() != plain.digest():
        problems.append("traced and untraced runs simulated differently")
    probe.write_trace(trace_path)
    return res, m, problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-output", action="store_true",
                    help="self-test: flip one output bit before the checks, "
                         "which must then fail the run")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: program source src/repro not found under "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = make_workload(args.workload, args.seed)
    wl.corrupt = args.corrupt_output
    host = host_metadata()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))

    if args.trace:
        res, metrics, extra = traced(
            wl, args.seconds, os.path.join(OUT_DIR, f"trace-{tag}.json"))
        table, notes = PER_LAYER, {
            "trace.overhead": "traced window / untraced window, same ops"}
    else:
        res, metrics, notes = end_to_end(wl, args.seconds)
        extra = []
        table = END_TO_END
    problems = res.problems + extra
    correct = not problems

    rows = list(table)
    if not args.trace:
        metrics["fail_ratio"] = 1 - metrics["success_ratio"]
        rows.append(("fail_ratio", "ratio"))
    for name, unit in rows:
        print(f"  {name:<26} {metrics[name]:>16.6f} {unit:<7} "
              f"{notes.get(name, '')}")
    if "host_speed" in notes:
        print(f"host_speed {notes['host_speed']}")
    n_digest = min(res.sim_ops if wl.fleet else res.ops, wl.digest_ops)
    digest = res.digest(n_digest)
    print(f"digest {digest} (simulated outputs of the first {n_digest} ops)")
    if correct:
        print(f"checks: ok ({res.verified} outputs verified)")
    else:
        print(f"checks: FAILED ({len(problems)} problems)")
        for p in problems[:20]:
            print(f"  {p}")

    attempted = res.extra.get("rounds", res.ops)
    out = {"correct": correct, "attempted": max(1, attempted),
           "failed": res.ops_failed,
           "metrics": {name: {"value": metrics[name], "unit": unit}
                       for name, unit in table}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({"args": vars(args), "host": host,
                   "digest": digest,
                   "problems": problems[:100], **out}, f, indent=1)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
