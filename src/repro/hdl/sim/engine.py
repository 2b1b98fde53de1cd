"""Simulator: the one poke/peek/step front-end over every backend.

>>> sim = Simulator(my_module)          # elaborates + compiles
>>> sim.poke("top.in_valid", 1)
>>> sim.step()
>>> sim.peek("top.out_data")

Combinational values are (re)computed lazily: any poke invalidates the
current evaluation, and ``peek`` / ``step`` recompute as needed.

``backend="batched"`` runs ``lanes`` lockstep instances on numpy vectors
(see :mod:`repro.hdl.sim.batched`).  Every call is lane-aware: ``poke``
and ``poke_mem`` drive every lane unless given ``lane=``, ``peek``,
``peek_mem`` and ``values`` read lane 0 unless given ``lane=``, and
``poke_all`` / ``peek_all`` take or return one value per lane.  The
interp and compiled backends are the ``lanes=1`` case of the same API.

Backend protocol
----------------
The front-end does tag synthesis, fault instrumentation, path
resolution, input/width/lane/address checks, fault plans, watchers,
telemetry and lazy settling once for every backend.  A backend only
holds storage and runs the netlist:

``new_state(lanes)``
    a fresh argument tuple ``(state, mems, env, ...)``: inputs zero,
    registers and memories at their initial values.  The single-lane
    backends reject ``lanes != 1``.
``eval_comb(*args)`` / ``step(*args)``
    settle every combinational signal / advance one clock cycle, in place.
``read`` / ``write`` / ``read_mem`` / ``write_mem``
    one signal or memory word of a checked lane (``None``: every lane).
``values(args, lane)`` / ``mem_rows(args, mem)``
    bulk snapshots for profilers; the batched backend adds
    ``rows(args)`` and ``row_span(sig)`` over its limb arrays.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Union

from ...obs import telemetry as _telemetry
from ..elaborate import elaborate
from ..memory import Mem
from ..module import Module
from ..netlist import Netlist
from ..nodes import HdlError, UnknownSignalError
from ..signal import Signal
from ..types import mask_for
from .compiler import CompiledBackend
from .interp import InterpBackend

SignalLike = Union[Signal, str]

_SCALAR_BACKENDS = {"compiled": CompiledBackend, "interp": InterpBackend}


class LaneError(IndexError, ValueError):
    """A lane outside ``0 <= lane < lanes``: an index past the lane axis
    of a batched simulator, an invalid argument (any nonzero lane) to a
    single-lane one, so it is both an IndexError and a ValueError."""


class SimStats:
    """Wall-time accounting for one simulator, accumulated only while
    telemetry is enabled (so the disabled path never calls the clock)."""

    __slots__ = ("timed_cycles", "wall_seconds", "step_calls")

    def __init__(self):
        self.timed_cycles = 0
        self.wall_seconds = 0.0
        self.step_calls = 0

    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.timed_cycles / self.wall_seconds


class Simulator:
    """Cycle-accurate simulator of ``lanes`` lockstep copies of a design."""

    def __init__(self, design: Union[Module, Netlist], backend: str = "compiled",
                 lanes: int = 1, fault_targets=None, fault_plan=None,
                 tag_tracking: bool = False, lattice=None,
                 tag_precise: bool = True, tag_check_downgrades: bool = True,
                 tag_audit: str = "full"):
        if backend == "batched":
            # Imported lazily: the batched backend needs numpy, which is a
            # test extra, not a runtime dependency of the package.
            from .batched import BatchedBackend as backend_cls
        elif backend in _SCALAR_BACKENDS:
            backend_cls = _SCALAR_BACKENDS[backend]
        else:
            raise ValueError(f"unknown backend {backend!r}")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if isinstance(design, Module):
            self.netlist = elaborate(design)
        else:
            self.netlist = design
        self.backend_name = backend
        self.lanes = lanes
        self.cycle = 0
        self.stats = SimStats()
        self._watchers = []

        # Tag synthesis runs first so that the shadow tag nets are part of
        # the netlist every backend compiles — and so the fault injector
        # below can target them like any other net (a fault campaign
        # against the *protected composite*, tag plane included).
        self.tag_plan = None
        self.tags = None
        if tag_tracking:
            from ...ifc.synth import synthesize_tags

            if lattice is None:
                raise ValueError(
                    "tag_tracking=True needs the security lattice the "
                    "design's labels live in (pass lattice=...)")
            self.netlist, self.tag_plan = synthesize_tags(
                self.netlist, lattice, check_downgrades=tag_check_downgrades,
                precise=tag_precise, audit=tag_audit)

        # Fault instrumentation happens before backend construction so all
        # backends compile the same (instrumented) netlist.  With every
        # control input at 0 the instrumented design behaves identically
        # to the original, so one instrumented simulator serves a whole
        # campaign of fault plans without recompiling.
        self.fault_controls = {}
        self._fault_applier = None
        if fault_plan is not None and fault_targets is None:
            fault_targets = fault_plan.signal_targets()
        if fault_targets:
            from ...faults.plan import instrument

            self.netlist, self.fault_controls = instrument(
                self.netlist, fault_targets)
        self._input_set = frozenset(self.netlist.inputs)
        # path -> signal, first match winning as in Netlist.signal_by_path
        self._by_path = {}
        for s in self.netlist.signals:
            self._by_path.setdefault(s.path, s)

        self._be = backend_cls(self.netlist)
        self._args = self._be.new_state(lanes)
        self._dirty = True
        if self.tag_plan is not None:
            from ...ifc.synth import TagView

            self.tags = TagView(self, self.tag_plan)
        if fault_plan is not None:
            self.load_fault_plan(fault_plan)

    # -- signal resolution -----------------------------------------------------
    def _resolve(self, sig: SignalLike) -> Signal:
        if isinstance(sig, Signal):
            return sig
        found = self._by_path.get(sig)
        if found is None:
            raise UnknownSignalError(
                sig, f"netlist of module {self.netlist.root.path!r}")
        return found

    def _resolve_mem(self, mem: Union[Mem, str]) -> Mem:
        if isinstance(mem, Mem):
            return mem
        return self.netlist.mem_by_path(mem)

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise LaneError(f"lane {lane} out of range (lanes={self.lanes})")

    def _mem_word(self, mem: Union[Mem, str], addr: int) -> Mem:
        mem = self._resolve_mem(mem)
        if not 0 <= addr < mem.depth:
            raise IndexError(
                f"address {addr} out of range for memory {mem.path} "
                f"(depth {mem.depth})")
        return mem

    # -- fault injection ----------------------------------------------------------
    def load_fault_plan(self, plan) -> None:
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this simulator.

        The simulator must have been constructed with ``fault_targets``
        covering every signal the plan touches (memory faults need no
        instrumentation).  Fault cycles are absolute ``sim.cycle`` values;
        the plan is applied at the top of every :meth:`step` iteration,
        so a faulted register latches its upset value at the commit of
        the scheduled cycle — exactly between evaluation and commit.
        Lane-targeted faults hit only their lane.
        """
        from ...faults.plan import FaultApplier

        self._fault_applier = FaultApplier(
            plan, self.fault_controls, self.netlist, lanes=self.lanes)

    def clear_fault_plan(self) -> None:
        """Disarm any loaded plan and zero every fault-control input."""
        self._fault_applier = None
        for ctrl in self.fault_controls.values():
            for sig in (ctrl.flip, ctrl.stuck1, ctrl.stuck0):
                self._poke(sig, 0, None)

    @property
    def fault_events(self) -> int:
        """(fault, cycle) applications performed so far."""
        ap = self._fault_applier
        return ap.events if ap is not None else 0

    def _apply_faults(self, ap) -> None:
        from ...faults.plan import faulted_value

        updates, mem_ops = ap.at(self.cycle)
        for sig, value in updates.items():
            self.poke_all(sig, value)
        for mem, addr, kind, mask, lane in mem_ops:
            for ln in range(self.lanes) if lane is None else (lane,):
                cur = self.peek_mem(mem, addr, ln)
                self.poke_mem(mem, addr,
                              faulted_value(cur, kind, mask, mem.width), ln)

    # -- testbench API ------------------------------------------------------------
    def _poke(self, sig: SignalLike, value: int, lane: Optional[int]) -> None:
        sig = self._resolve(sig)
        if not 0 <= value <= mask_for(sig.width):
            raise ValueError(
                f"value {value} does not fit {sig.width}-bit signal {sig.path}"
            )
        if sig not in self._input_set:
            raise HdlError(f"{sig.path} is not a free input of this netlist")
        if lane is not None:
            self._check_lane(lane)
        self._be.write(self._args, sig, value, lane)
        self._dirty = True

    def poke(self, sig: SignalLike, value: int,
             lane: Optional[int] = None) -> None:
        """Drive a free (input) signal on one lane, or on every lane."""
        self._poke(sig, value, lane)

    def poke_all(self, sig: SignalLike, value) -> None:
        """Drive a free input on every lane: ``value`` is one int for all
        lanes or a sequence of one int per lane."""
        if isinstance(value, int):
            self._poke(sig, value, None)
            return
        values = list(value)
        if len(values) != self.lanes:
            raise ValueError(
                f"expected {self.lanes} per-lane values, got {len(values)}"
            )
        sig = self._resolve(sig)
        for lane, v in enumerate(values):
            self._poke(sig, v, lane)

    def peek(self, sig: SignalLike, lane: int = 0) -> int:
        """Read any signal's current (combinationally settled) value."""
        sig = self._resolve(sig)
        if lane:
            self._check_lane(lane)
        self._settle()
        return self._be.read(self._args, sig, lane)

    def peek_all(self, sig: SignalLike) -> List[int]:
        """Read a signal on every lane; returns one int per lane."""
        sig = self._resolve(sig)
        self._settle()
        return self._be.read(self._args, sig, None)

    def peek_mem(self, mem: Union[Mem, str], addr: int, lane: int = 0) -> int:
        mem = self._mem_word(mem, addr)
        self._check_lane(lane)
        return self._be.read_mem(self._args, mem, addr, lane)

    def poke_mem(self, mem: Union[Mem, str], addr: int, value: int,
                 lane: Optional[int] = None) -> None:
        """Testbench backdoor write into a memory (every lane unless
        ``lane`` is given)."""
        mem = self._mem_word(mem, addr)
        if not 0 <= value <= mask_for(mem.width):
            raise ValueError(f"value {value} does not fit memory {mem.path}")
        if lane is not None:
            self._check_lane(lane)
        self._be.write_mem(self._args, mem, addr, value, lane)
        self._dirty = True

    def _settle(self) -> None:
        if self._dirty:
            self._be.eval_comb(*self._args)
            self._dirty = False

    def step(self, n: int = 1) -> None:
        """Advance ``n`` clock cycles (every lane)."""
        # telemetry: one global read per call; None (the default) makes
        # the whole accounting path two cheap branches
        obs = _telemetry()
        t0 = perf_counter() if obs is not None else 0.0
        for _ in range(n):
            if self._fault_applier is not None:
                self._apply_faults(self._fault_applier)
            if self._watchers:
                self._settle()
                for w in self._watchers:
                    w(self)
            self._be.step(*self._args)
            self.cycle += 1
            self._dirty = True
        if obs is not None:
            st = self.stats
            st.wall_seconds += perf_counter() - t0
            st.timed_cycles += n
            st.step_calls += 1

    def reset(self) -> None:
        """Reset registers to init values and memories to initial contents."""
        self._args = self._be.new_state(self.lanes)
        self.cycle = 0
        self._dirty = True
        if self.tags is not None:
            self.tags.reseed()
        if self._fault_applier is not None:
            self._fault_applier.reset()

    # -- bulk observation (profilers) -------------------------------------------
    def value_signals(self) -> List[Signal]:
        """Every stateful and combinational signal, in snapshot order.

        The order matches :meth:`values`: inputs, then registers, then
        combinational signals (the same layout all three backends use
        internally), so ``zip(sim.value_signals(), sim.values())`` pairs
        each signal with its settled value.
        """
        return (list(self.netlist.inputs) + list(self.netlist.regs)
                + list(self.netlist.comb))

    def values(self, lane: int = 0) -> List[int]:
        """Settled values of :meth:`value_signals` on one lane, as one
        flat list: the profiler's sampling primitive, one call per
        sampled cycle instead of one ``peek`` per signal."""
        self._check_lane(lane)
        self._settle()
        return self._be.values(self._args, lane)

    def mem_rows(self, mem: Union[Mem, str]):
        """A copy of one memory in the backend's layout: a word list on
        the single-lane backends, one ``(depth, lanes)`` uint64 array per
        64-bit limb on the batched backend."""
        return self._be.mem_rows(self._args, self._resolve_mem(mem))

    def snapshot_rows(self):
        """Batched backend only: every settled input, register and
        combinational limb as one ``(rows, lanes)`` uint64 copy, laid out
        as :meth:`row_span` says."""
        self._settle()
        return self._be.rows(self._args)

    def row_span(self, sig: SignalLike):
        """Batched backend only: ``(first row, limb count)`` of a signal
        in :meth:`snapshot_rows`."""
        return self._be.row_span(self._resolve(sig))

    def add_watcher(self, fn) -> None:
        """Register a callable invoked (with the simulator, every lane
        settled) before each step."""
        self._watchers.append(fn)

    def remove_watcher(self, fn) -> None:
        """Detach a watcher previously registered with ``add_watcher``."""
        if fn in self._watchers:
            self._watchers.remove(fn)

    def run_until(self, sig: SignalLike, value: int = 1, max_cycles: int = 10000) -> int:
        """Step until ``sig == value`` on lane 0; returns cycles waited.

        Raises ``TimeoutError`` after ``max_cycles``.
        """
        sig = self._resolve(sig)
        for waited in range(max_cycles):
            if self.peek(sig) == value:
                return waited
            self.step()
        raise TimeoutError(
            f"{sig.path} did not reach {value} within {max_cycles} cycles"
        )
