"""Per-layer tracing for the traced benchmark run.

The program itself carries no spans for these layers, so this module
records them from the outside: it wraps the public entry points of each
layer (and the few private boundaries where a layer's work actually
happens, such as the lazy comb evaluation behind ``peek``) with a timing
shim, runs the workload, and removes the shims again.  Every wrapped call
is one span with a start, an end and the span that caused it.

* A layer's **self time** is its span's duration minus the part covered by
  the wrapped calls it made (its child spans), so the ``.s`` metrics of
  nested layers add up instead of double counting.
* Coarse spans (one per build, issue, round, batched step, ...) are also
  recorded in a :class:`repro.obs.tracing.Tracer` kept in memory and
  written out as a Chrome trace when the benchmark ends.  The
  fine-grained ones (``peek``/``poke``/settle, several per simulated
  cycle) only feed the counters, which keeps the trace file small.

Which end-to-end metric each layer metric should move, and on which
workload, is tabled in ``README.md``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.accel.driver import AcceleratorDriver
from repro.hdl.netlist import Netlist
from repro.hdl.sim import batched as _batched
from repro.hdl.sim import compiler as _compiler
from repro.hdl.sim.engine import Simulator
from repro.ifc import synth as _synth
from repro.obs.tracing import Tracer
from repro.soc import fleet as _fleet
from repro.soc.shard import ShardCore

# the package re-exports the function under the module's name
_elaborate_mod = importlib.import_module("repro.hdl.elaborate")


def _cycles_arg(args, kwargs) -> int:
    """The ``n``/``cycles`` argument of a ``step``/``tick`` call (default 1)."""
    if len(args) > 1:
        return args[1]
    return next(iter(kwargs.values()), 1)


class LayerProbe:
    """Timing shims around layer entry points, with self-time accounting."""

    def __init__(self):
        self.tracer = Tracer()   # spans carry their own perf_counter stamps
        #: layer name -> [calls, self seconds, total seconds]
        self.stats: Dict[str, List[float]] = {}
        #: extra per-layer counts (cycles stepped, wait cycles, nets out)
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- installing shims -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, emit: bool = True,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timed shim recording layer ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(probe, token, args, kwargs, result)``, which may
        add layer counts.  ``emit`` also records the span in the tracer.
        """
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        probe = self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self.tracer

        def shim(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = probe._stack
            frame = [0.0, 0]
            if emit:
                probe._next_id += 1
                frame[1] = probe._next_id
            parent = next((f[1] for f in reversed(stack) if f[1]), 0)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt
                if emit:
                    tracer.complete(name, t0 * 1e6, dt * 1e6, cat="layer",
                                    id=frame[1], parent=parent)
            if after is not None:
                after(probe, token, args, kwargs, result)
            return result

        setattr(owner, attr, shim)

    def wrap_function(self, func, name: str, **kw) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, func.__name__, None) is func):
                self.wrap(mod, func.__name__, name, **kw)

    def remove(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- reading ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.tracer.to_chrome_trace(), f)


def _count_cycles(key: str) -> Callable:
    def after(probe, _token, args, kwargs, _result):
        probe.add(key, _cycles_arg(args, kwargs))
    return after


def _issue_before(args, _kwargs):
    return args[0].sim.cycle


def _issue_after(probe, start, args, _kwargs, _result):
    # issue() steps once for the accepted cycle; the rest was waiting
    probe.add("driver.issue.wait_cycles", args[0].sim.cycle - start - 1)


def _synth_after(probe, _token, _args, _kwargs, result):
    netlist = result[0]
    probe.add("synth.nets_out", len(netlist.inputs) + len(netlist.regs)
              + len(netlist.comb))


def install_all(probe: LayerProbe) -> None:
    """Shim every layer the benchmark measures (single-process runs)."""
    probe.wrap_function(_elaborate_mod.elaborate, "hdl.elaborate")
    probe.wrap(Netlist, "fingerprint", "hdl.fingerprint")
    probe.wrap_function(_synth.synthesize_tags, "synth", after=_synth_after)
    probe.wrap(_compiler.CompiledBackend, "__init__", "codegen.compiled")
    probe.wrap(_batched.BatchedBackend, "__init__", "codegen.batched")
    # engine: step includes the compiled step kernel; settle is the lazy
    # comb evaluation a peek after a poke or step triggers
    probe.wrap(Simulator, "step", "engine.step", emit=False,
               after=_count_cycles("engine.step.cycles"))
    probe.wrap(_compiler.CompiledBackend, "eval_comb", "engine.settle",
               emit=False)
    probe.wrap(Simulator, "peek", "engine.peek", emit=False)
    probe.wrap(Simulator, "poke", "engine.poke", emit=False)
    probe.wrap(Simulator, "_resolve", "engine.resolve", emit=False)
    # batched: step includes the vectorised step kernel
    probe.wrap(_batched.BatchSimulator, "step", "batched.step",
               after=_count_cycles("batched.step.cycles"))
    probe.wrap(_batched.BatchedBackend, "eval_comb", "batched.settle",
               emit=False)
    probe.wrap(_batched.BatchSimulator, "poke_all", "batched.io", emit=False)
    probe.wrap(_batched.BatchSimulator, "peek_all", "batched.io", emit=False)
    probe.wrap(AcceleratorDriver, "issue", "driver.issue",
               before=_issue_before, after=_issue_after)
    probe.wrap(AcceleratorDriver, "step", "driver.step", emit=False)
    probe.wrap(AcceleratorDriver, "allocate_slot", "driver.provision")
    probe.wrap(AcceleratorDriver, "load_key", "driver.provision")
    probe.wrap(ShardCore, "tick", "shard.tick",
               after=_count_cycles("shard.tick.cycles"))
    probe.wrap(_fleet.ShardServer, "run_round", "shard.round")
    install_coordinator(probe)


def install_coordinator(probe: LayerProbe) -> None:
    """Shim only the fleet coordinator's side (process-worker runs).

    Forked workers inherit these shims but never call them, so the
    workers themselves run untraced.
    """
    probe.wrap(_fleet.AcceleratorFleet, "run", "fleet.run")
    probe.wrap(_fleet.AcceleratorFleet, "_spawn", "fleet.spawn")
    probe.wrap(_fleet._ProcessHost, "_recv", "fleet.pipe.wait")


def cache_stats() -> Dict[str, int]:
    """Summed hit/miss counters of the compiled and batched code caches."""
    c, b = _compiler.compile_cache_stats(), _batched.batch_cache_stats()
    return {"hits": c["hits"] + b["hits"], "misses": c["misses"] + b["misses"]}
