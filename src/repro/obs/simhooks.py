"""Simulator-level telemetry: cycles/s, compile-cache stats, lane utilization.

The three backends (interp, compiled, batched) expose heterogeneous
internals; this module flattens them into one uniform metric surface so
dashboards and the ``python -m repro obs`` report never special-case a
backend:

* ``sim_cycles_total{backend=...}`` / ``sim_wall_seconds`` /
  ``sim_cycles_per_second`` / ``sim_lane_cycles_per_second`` — from the
  per-simulator :class:`~repro.hdl.sim.engine.SimStats` accumulated
  while telemetry is enabled;
* ``sim_compile_cache_{entries,hits,misses}{backend=...}`` — the
  fingerprint-keyed codegen caches of the compiled and batched backends
  (the interp backend has no codegen; it reports zeros so the key set
  stays identical);
* ``sim_lanes`` / ``sim_lane_utilization`` — batched backend only: the
  fraction of lanes holding a nonzero value on a chosen "active" signal.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Uniform zero block for backends without a codegen cache.
_NO_CACHE = {"entries": 0, "hits": 0, "misses": 0}


def compile_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counts of every backend's compile cache, uniformly.

    Keys are backend names; every value has the same three fields, so
    the metrics layer reports the compiled and batched caches
    identically (the interp backend reports zeros).
    """
    from ..hdl.sim import compiler

    out = {"interp": dict(_NO_CACHE),
           "compiled": compiler.compile_cache_stats()}
    try:
        from ..hdl.sim import batched

        out["batched"] = batched.batch_cache_stats()
    except ImportError:  # pragma: no cover - numpy is a test extra
        out["batched"] = dict(_NO_CACHE)
    return out


def clear_compile_caches() -> None:
    """Drop both codegen caches and reset their counters."""
    from ..hdl.sim import compiler

    compiler.clear_compile_cache()
    try:
        from ..hdl.sim import batched

        batched.clear_batch_cache()
    except ImportError:  # pragma: no cover
        pass


def sim_stats(sim) -> Dict[str, object]:
    """Flat stats dict for one simulator (any backend)."""
    wall = sim.stats.wall_seconds
    timed = sim.stats.timed_cycles
    lanes = sim.lanes
    cps = (timed / wall) if wall > 0 else 0.0
    return {
        "backend": sim.backend_name,
        "lanes": lanes,
        "cycles": sim.cycle,
        "timed_cycles": timed,
        "wall_seconds": wall,
        "cycles_per_second": cps,
        "lane_cycles_per_second": cps * lanes,
    }


def lane_utilization(sim, active_signal) -> Optional[float]:
    """Fraction of batched lanes with ``active_signal`` nonzero.

    Returns None for non-batched simulators (there is no lane axis).
    """
    if sim.backend_name != "batched":
        return None
    values = sim.peek_all(active_signal)
    if not values:
        return 0.0
    return sum(1 for v in values if v) / len(values)


def publish_sim_metrics(sim, registry, active_signal=None) -> None:
    """Publish one simulator's stats into ``registry`` as gauges."""
    info = sim_stats(sim)
    backend = str(info["backend"])
    lanes = int(info["lanes"])  # type: ignore[arg-type]

    g = registry.gauge
    labels = {"backend": backend, "lanes": str(lanes)}
    g("sim_cycles_total", "cycles simulated", ("backend", "lanes")).set(
        float(info["cycles"]), **labels)
    g("sim_wall_seconds", "wall time spent inside step() while telemetry "
      "was enabled", ("backend", "lanes")).set(
        float(info["wall_seconds"]), **labels)
    g("sim_cycles_per_second", "simulated cycles per wall second",
      ("backend", "lanes")).set(float(info["cycles_per_second"]), **labels)
    g("sim_lane_cycles_per_second", "cycles x lanes per wall second",
      ("backend", "lanes")).set(
        float(info["lane_cycles_per_second"]), **labels)

    for be, stats in compile_cache_stats().items():
        for field in ("entries", "hits", "misses"):
            g(f"sim_compile_cache_{field}",
              "fingerprint-keyed codegen cache", ("backend",)).set(
                float(stats[field]), backend=be)

    if active_signal is not None:
        util = lane_utilization(sim, active_signal)
        if util is not None:
            g("sim_lane_utilization",
              "fraction of batched lanes active", ("backend", "lanes")).set(
                util, **labels)
