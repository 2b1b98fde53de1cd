"""``python -m repro ifc synth`` — shadow-tag transform report and gate.

Three sections, mirroring what the paper's Table 2 does for area:

* **tag-net counts** — :meth:`TagPlan.stats` for a handful of labelled
  designs: how many shadow nets / bits / sites the transform adds.
* **per-backend overhead** — wall-clock cost of ``tag_tracking=True``
  against the plain simulation of the same workload, per backend, plus
  the lane-cycles/s the batched backend sustains with tags on.
* **differential spot-check** — the CI-sized version of the full
  harness in ``tests/ifc/test_synth_differential.py``: the interpreted
  :class:`~repro.ifc.tracker.LabelTracker` (oracle) and the synthesized
  tags must agree on every combinational and register label, every
  cycle, on every backend checked.

Exit codes: 0 clean, 1 when the spot-check finds a divergence, 2 on a
usage error.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

#: workload length per backend for the overhead measurement
OVERHEAD_CYCLES = 400
#: spot-check length (cycle-exact label comparison against the oracle)
CHECK_CYCLES = 60
BATCH_LANES = 16


def _stats_designs():
    """Flat labelled designs the transform is synthesized over for the
    tag-net count table (no simulation — just the netlist rewrite)."""
    from ..accel.declassifier import Declassifier
    from ..accel.mini import MiniTaggedPipeline
    from ..accel.scratchpad import KeyScratchpad
    from ..accel.stall import StallController

    return {
        "mini-guarded": lambda: MiniTaggedPipeline(3, guarded=True),
        "mini-unguarded": lambda: MiniTaggedPipeline(3, guarded=False),
        "stall": lambda: StallController(30, protected=True),
        "scratchpad": lambda: KeyScratchpad(protected=True),
        "declassifier": lambda: Declassifier(protected=True),
    }


def _mini_frames(cycles: int) -> List[Dict[str, int]]:
    """Deterministic in-domain stimulus for ``MiniTaggedPipeline(3)``.

    Every dependent-label selector (``in_tag``, ``rd_tag``) stays inside
    its declared domain — the interpreted oracle raises outside it."""
    from ..accel.common import user_label
    from ..accel.mini import BUBBLE_TAG

    alice = user_label("p0").encode()
    eve = user_label("p1").encode()
    frames = []
    for t in range(cycles):
        valid = 0 if t % 7 == 6 else 1
        tag = alice if (t % 3) != 2 else eve
        frames.append({
            "mini.in_valid": valid,
            "mini.in_tag": tag if valid else BUBBLE_TAG,
            "mini.in_data": (0x3A + 5 * t) & 0xFF,
            "mini.rd_tag": eve if t % 2 else alice,
            "mini.stall_req": 1 if t % 5 == 0 else 0,
        })
    return frames


def _drive(sim, frames) -> float:
    t0 = time.perf_counter()
    for frame in frames:
        for path, value in frame.items():
            sim.poke(path, value)
        sim.step(1)
    return time.perf_counter() - t0


def _overhead(backend: str, frames) -> Dict[str, float]:
    """Tagged-vs-plain wall time for the mini workload on one backend."""
    from ..accel.common import LATTICE
    from ..accel.mini import MiniTaggedPipeline

    from ..hdl.sim import Simulator

    lanes = BATCH_LANES if backend == "batched" else 1

    def build(tagged: bool):
        kwargs = dict(tag_tracking=True, lattice=LATTICE) if tagged else {}
        return Simulator(MiniTaggedPipeline(3, guarded=True),
                         backend=backend, lanes=lanes, **kwargs)

    plain = _drive(build(False), frames)
    tagged = _drive(build(True), frames)
    n = len(frames)
    return {
        "backend": backend,
        "cycles": n,
        "lanes": lanes,
        "plain_s": round(plain, 4),
        "tagged_s": round(tagged, 4),
        "overhead_x": round(tagged / plain, 2) if plain > 0 else float("inf"),
        "tagged_lane_cycles_per_s": round(n * lanes / tagged, 1)
        if tagged > 0 else float("inf"),
    }


def _spot_check(backend: str, cycles: int) -> Dict[str, object]:
    """Oracle-vs-synthesized label agreement on the mini pipeline."""
    from ..accel.common import LATTICE
    from ..accel.mini import MiniTaggedPipeline
    from ..hdl.elaborate import elaborate
    from ..hdl.sim import Simulator
    from .tracker import LabelTracker

    nl = elaborate(MiniTaggedPipeline(3, guarded=True))
    oracle_sim = Simulator(nl, backend="interp")
    oracle = LabelTracker(oracle_sim, LATTICE)
    kwargs = dict(backend=backend, tag_tracking=True, lattice=LATTICE)
    if backend == "batched":
        kwargs["lanes"] = 2
    dut = Simulator(nl, **kwargs)

    compared = 0
    first_mismatch: Optional[str] = None
    for cycle, frame in enumerate(_mini_frames(cycles)):
        for path, value in frame.items():
            oracle_sim.poke(path, value)
            dut.poke(path, value)
        oracle_sim.step()
        for sig in nl.comb:
            want = oracle._last_env[sig][1]
            got = dut.tags.label_of(sig.path)
            compared += 1
            if got != want and first_mismatch is None:
                first_mismatch = (f"cycle {cycle} {sig.path}: "
                                  f"oracle={want!r} synthesized={got!r}")
        dut.step()
        for reg in nl.regs:
            want = oracle.reg_labels[reg]
            got = dut.tags.label_of(reg.path)
            compared += 1
            if got != want and first_mismatch is None:
                first_mismatch = (f"cycle {cycle} {reg.path} (post-edge): "
                                  f"oracle={want!r} synthesized={got!r}")
    return {
        "backend": backend,
        "cycles": cycles,
        "labels_compared": compared,
        "ok": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }


def build_report(backends, cycles: int, check_cycles: int) -> dict:
    from ..accel.common import LATTICE
    from ..hdl.elaborate import elaborate
    from .synth import synthesize_tags

    stats = {}
    for name, build in _stats_designs().items():
        nl = elaborate(build())
        base_nets = len(nl.comb) + len(nl.regs) + len(nl.inputs)
        _tagged, plan = synthesize_tags(nl, LATTICE)
        entry = plan.stats()
        entry["base_nets"] = base_nets
        stats[name] = entry

    frames = _mini_frames(cycles)
    overhead = [_overhead(b, frames) for b in backends]
    checks = [_spot_check(b, check_cycles) for b in backends]
    return {
        "tool": "repro ifc synth",
        "design": "mini-guarded",
        "stats": stats,
        "overhead": overhead,
        "differential": checks,
        "ok": all(c["ok"] for c in checks),
    }


def render(report: dict) -> str:
    lines = ["synthesized shadow-tag report", ""]
    lines.append("tag-net counts (flat designs):")
    lines.append(f"  {'design':<16} {'base':>5} {'+tag nets':>9} "
                 f"{'tag bits':>8} {'mems':>5} {'flow':>5} {'downg':>5}")
    for name, st in report["stats"].items():
        lines.append(
            f"  {name:<16} {st['base_nets']:>5} {st['tag_nets']:>9} "
            f"{st['tag_net_bits']:>8} {st['shadow_mems']:>5} "
            f"{st['flow_sites']:>5} {st['downgrade_sites']:>5}")
    lines.append("")
    lines.append("per-backend overhead (mini-guarded workload):")
    for o in report["overhead"]:
        lines.append(
            f"  {o['backend']:<9} x{o['lanes']:<3} {o['cycles']} cycles: "
            f"plain {o['plain_s']}s  tagged {o['tagged_s']}s  "
            f"overhead {o['overhead_x']}x  "
            f"({o['tagged_lane_cycles_per_s']:.0f} tagged lane-cycles/s)")
    lines.append("")
    lines.append("differential spot-check vs interpreted LabelTracker:")
    for c in report["differential"]:
        verdict = "OK" if c["ok"] else f"MISMATCH: {c['first_mismatch']}"
        lines.append(f"  {c['backend']:<9} {c['labels_compared']} labels "
                     f"over {c['cycles']} cycles: {verdict}")
    lines.append("")
    lines.append("gate: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)


def cmd_ifc_synth(args) -> int:
    if args.backend == "all":
        backends = ["interp", "compiled"]
        try:
            import numpy  # noqa: F401

            backends.append("batched")
        except ImportError:
            pass
    else:
        backends = [args.backend]
        if args.backend == "batched":
            try:
                import numpy  # noqa: F401
            except ImportError:
                print("batched backend needs numpy", file=sys.stderr)
                return 2

    from ..gate import gate_epilogue

    cycles = 60 if args.smoke else args.cycles
    check_cycles = 30 if args.smoke else CHECK_CYCLES
    report = build_report(backends, cycles, check_cycles)
    return gate_epilogue(
        args, ok=report["ok"], payload=report,
        render=lambda: render(report),
        artifacts={"synth_report.json": report})
