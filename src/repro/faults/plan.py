"""Fault plans and netlist-level fault instrumentation.

A :class:`Fault` names a *target* (a signal path, or a memory path plus a
cell address), a *kind* (transient bit-flip, stuck-at-1, stuck-at-0), a
bit ``mask``, and a schedule (``cycle``, ``duration`` cycles, optional
batched ``lane``).  A :class:`FaultPlan` is an ordered bag of faults.

Injection is a **netlist transformation**, not a per-backend hack: for
every targeted signal ``s``, :func:`instrument` rewrites its driver (or
its register-next expression) as::

    ((s_orig ^ flip) | stuck1) & ~stuck0

where ``flip``/``stuck1``/``stuck0`` are three new free inputs of the
netlist.  All three simulation backends consume the same netlist, so the
fault semantics are identical across the interpreter, the compiled
backend, and the batched backend *by construction* — and the structural
fingerprint changes, so the module-level compile caches stay sound.  For
registers the rewrite lands exactly between evaluation and commit: the
faulted value is what the register latches.  Registers that normally
hold their value get an explicit recirculating next-value expression so
they too can be upset.

Memory cells (e.g. the scratchpad tag array) are faulted through the
simulator's backdoor ``poke_mem``: a *transient* memory fault is one
read-modify-write XOR at its scheduled cycle (an SRAM upset persists
until the design rewrites the cell, so ``duration`` is ignored); stuck-at
memory faults are re-asserted at the start of every cycle in the window.

With all masks at zero the instrumented design is cycle-for-cycle
equivalent to the original — the identity is ``((s ^ 0) | 0) & ~0``.

The per-cycle drive logic lives in :class:`FaultApplier`, which
:class:`~repro.hdl.sim.engine.Simulator` calls at the top of every
``step`` iteration on every backend.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..hdl.memory import Mem
from ..hdl.netlist import Netlist
from ..hdl.nodes import HdlError
from ..hdl.signal import Signal, SignalKind
from ..hdl.types import mask_for


class FaultPlanError(HdlError):
    """A fault plan does not fit the design it is aimed at."""


class FaultKind(str, enum.Enum):
    """How the mask combines with the target's value."""

    TRANSIENT = "transient"      # value ^ mask, each cycle in the window
    STUCK_AT_1 = "stuck_at_1"    # value | mask, for the window
    STUCK_AT_0 = "stuck_at_0"    # value & ~mask, for the window


def faulted_value(value: int, kind: FaultKind, mask: int, width: int) -> int:
    """Apply one fault kind to a plain integer value."""
    if kind is FaultKind.TRANSIENT:
        return (value ^ mask) & mask_for(width)
    if kind is FaultKind.STUCK_AT_1:
        return (value | mask) & mask_for(width)
    return value & ~mask & mask_for(width)


class Fault:
    """One scheduled upset.

    ``target`` is a hierarchical signal path (``aes.pipe.sc3.tag_r``) or,
    when ``addr`` is not None, a memory path (``aes.scratchpad.tags``).
    ``cycle`` is an absolute simulator cycle; ``duration`` extends the
    window (a multi-cycle burst).  ``lane`` restricts a batched-backend
    fault to one lane (None = every lane).
    """

    __slots__ = ("target", "kind", "mask", "cycle", "duration", "lane",
                 "addr")

    def __init__(self, target: str, kind: Union[FaultKind, str], mask: int,
                 cycle: int, duration: int = 1,
                 lane: Optional[int] = None, addr: Optional[int] = None):
        self.target = target
        self.kind = FaultKind(kind)
        self.mask = mask
        self.cycle = cycle
        self.duration = duration
        self.lane = lane
        self.addr = addr
        if mask <= 0:
            raise FaultPlanError(f"fault on {target!r} needs a nonzero mask")
        if duration < 1:
            raise FaultPlanError(
                f"fault on {target!r} needs duration >= 1, got {duration}")
        if cycle < 0:
            raise FaultPlanError(
                f"fault on {target!r} scheduled before cycle 0")

    @property
    def is_mem(self) -> bool:
        return self.addr is not None

    def active_at(self, cycle: int) -> bool:
        return self.cycle <= cycle < self.cycle + self.duration

    def to_dict(self) -> dict:
        return {"target": self.target, "kind": self.kind.value,
                "mask": self.mask, "cycle": self.cycle,
                "duration": self.duration, "lane": self.lane,
                "addr": self.addr}

    def __repr__(self) -> str:
        where = f"{self.target}[{self.addr}]" if self.is_mem else self.target
        lane = f", lane={self.lane}" if self.lane is not None else ""
        return (f"Fault({where}, {self.kind.value}, mask={self.mask:#x}, "
                f"cycle={self.cycle}, dur={self.duration}{lane})")


class FaultPlan:
    """An ordered collection of faults, applied together."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: List[Fault] = list(faults)

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def signal_targets(self) -> List[str]:
        """Distinct signal paths this plan needs instrumented."""
        return sorted({f.target for f in self.faults if not f.is_mem})

    def window(self) -> Tuple[int, int]:
        """[first, last) cycle range in which any fault is active."""
        if not self.faults:
            return (0, 0)
        return (min(f.cycle for f in self.faults),
                max(f.cycle + f.duration for f in self.faults))

    def shifted(self, base: int) -> "FaultPlan":
        """A copy with every fault's cycle offset by ``base``."""
        return FaultPlan(
            Fault(f.target, f.kind, f.mask, f.cycle + base, f.duration,
                  f.lane, f.addr)
            for f in self.faults)

    def to_dict(self) -> dict:
        return {"faults": [f.to_dict() for f in self.faults]}

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"


class FaultControl:
    """The three fault-control inputs grafted onto one target signal."""

    __slots__ = ("target", "victim", "flip", "stuck1", "stuck0")

    def __init__(self, target: str, victim: Signal, flip: Signal,
                 stuck1: Signal, stuck0: Signal):
        self.target = target
        self.victim = victim
        self.flip = flip
        self.stuck1 = stuck1
        self.stuck0 = stuck0

    def __repr__(self) -> str:
        return f"FaultControl({self.target}, w={self.victim.width})"


def _fault_expr(orig, flip: Signal, stuck1: Signal, stuck0: Signal):
    return ((orig ^ flip) | stuck1) & ~stuck0


def instrument(netlist: Netlist,
               targets: Sequence[str]) -> Tuple[Netlist,
                                                Dict[str, FaultControl]]:
    """Return an instrumented copy of ``netlist`` plus its fault controls.

    The copy shares expression nodes with the original; only the driver /
    reg-next maps and the input/signal lists are rebuilt.  Unknown paths
    raise :class:`~repro.hdl.nodes.UnknownSignalError` naming the signal
    and the root module; free inputs and undriven signals are rejected
    with a :class:`FaultPlanError` (poke inputs directly instead).
    """
    out = Netlist(netlist.root)
    out.inputs = list(netlist.inputs)
    out.regs = list(netlist.regs)
    out.comb = list(netlist.comb)
    out.drivers = dict(netlist.drivers)
    out.reg_next = dict(netlist.reg_next)
    out.mems = list(netlist.mems)
    out.mem_writes = {m: list(ws) for m, ws in netlist.mem_writes.items()}
    out.signals = list(netlist.signals)

    input_set = frozenset(out.inputs)
    reg_set = frozenset(out.regs)
    controls: Dict[str, FaultControl] = {}
    for path in sorted(set(targets)):
        sig = out.signal_by_path(path)  # UnknownSignalError names the module
        if sig in input_set:
            raise FaultPlanError(
                f"{path} is a free input of module {out.root.path!r}; "
                "drive it with poke() instead of instrumenting a fault")
        flip = Signal(f"fault.{path}.flip", sig.width, SignalKind.INPUT,
                      owner=None)
        stuck1 = Signal(f"fault.{path}.stuck1", sig.width, SignalKind.INPUT,
                        owner=None)
        stuck0 = Signal(f"fault.{path}.stuck0", sig.width, SignalKind.INPUT,
                        owner=None)
        if sig in out.drivers:
            out.drivers[sig] = _fault_expr(out.drivers[sig], flip, stuck1,
                                           stuck0)
        elif sig in reg_set:
            # held registers recirculate so they too can be upset
            orig = out.reg_next.get(sig, sig)
            out.reg_next[sig] = _fault_expr(orig, flip, stuck1, stuck0)
        else:
            raise FaultPlanError(
                f"{path} has no driver to instrument in module "
                f"{out.root.path!r}")
        out.inputs.extend((flip, stuck1, stuck0))
        out.signals.extend((flip, stuck1, stuck0))
        controls[path] = FaultControl(path, sig, flip, stuck1, stuck0)
    return out, controls


class FaultApplier:
    """Computes the fault-control input values for each cycle.

    Owned by a simulator; ``at(cycle)`` returns ``(signal_updates,
    mem_ops)`` where ``signal_updates`` maps each control :class:`Signal`
    whose value *changed* to its new value (an int, or a per-lane list
    when any fault in the plan is lane-targeted), and ``mem_ops`` lists
    ``(Mem, addr, kind, mask, lane)`` backdoor operations due this cycle.
    Outside the plan's active window (and once the controls have been
    zeroed again) it returns empty updates, so idle cycles cost one range
    check.
    """

    def __init__(self, plan: FaultPlan, controls: Dict[str, FaultControl],
                 netlist: Netlist, lanes: int = 1):
        self.plan = plan
        self.lanes = lanes
        self.events = 0        # (fault, cycle) applications performed
        self._controls = controls
        self._sig_faults: Dict[str, List[Fault]] = {}
        self._mem_faults: List[Tuple[Mem, Fault]] = []
        for f in plan.faults:
            if f.lane is not None and not 0 <= f.lane < lanes:
                raise FaultPlanError(
                    f"fault on {f.target!r} targets lane {f.lane}, but the "
                    f"simulator has {lanes} lane(s)")
            if f.is_mem:
                mem = netlist.mem_by_path(f.target)  # UnknownMemoryError
                if not 0 <= f.addr < mem.depth:
                    raise FaultPlanError(
                        f"address {f.addr} out of range for memory "
                        f"{f.target} (depth {mem.depth})")
                if f.mask > mask_for(mem.width):
                    raise FaultPlanError(
                        f"mask {f.mask:#x} does not fit {mem.width}-bit "
                        f"memory {f.target}")
                self._mem_faults.append((mem, f))
            else:
                ctrl = controls.get(f.target)
                if ctrl is None:
                    known = ", ".join(sorted(controls)) or "<none>"
                    raise FaultPlanError(
                        f"signal {f.target!r} is not instrumented on this "
                        f"simulator (instrumented targets: {known})")
                if f.mask > mask_for(ctrl.victim.width):
                    raise FaultPlanError(
                        f"mask {f.mask:#x} does not fit "
                        f"{ctrl.victim.width}-bit signal {f.target}")
                self._sig_faults.setdefault(f.target, []).append(f)
        self._first, self._last = plan.window()
        self._per_lane = lanes > 1 and any(
            f.lane is not None for f in plan.faults)
        self._applied: Dict[Signal, object] = {}
        self._nonzero = False

    def active_window(self) -> Tuple[int, int]:
        return (self._first, self._last)

    def reset(self) -> None:
        """Forget applied-control state (after a simulator reset zeroed
        the inputs behind our back)."""
        self._applied.clear()
        self._nonzero = False

    def _accumulate(self, faults: List[Fault], cycle: int):
        """Per-kind masks for one target at one cycle."""
        if self._per_lane:
            acc = {FaultKind.TRANSIENT: [0] * self.lanes,
                   FaultKind.STUCK_AT_1: [0] * self.lanes,
                   FaultKind.STUCK_AT_0: [0] * self.lanes}
            for f in faults:
                if not f.active_at(cycle):
                    continue
                self.events += 1
                rows = (range(self.lanes) if f.lane is None else (f.lane,))
                for lane in rows:
                    acc[f.kind][lane] |= f.mask
            return acc
        acc = {FaultKind.TRANSIENT: 0, FaultKind.STUCK_AT_1: 0,
               FaultKind.STUCK_AT_0: 0}
        for f in faults:
            if not f.active_at(cycle):
                continue
            self.events += 1
            acc[f.kind] |= f.mask
        return acc

    def at(self, cycle: int):
        """Control updates and memory operations due at ``cycle``."""
        in_window = self._first <= cycle < self._last
        if not in_window and not self._nonzero:
            return {}, ()
        updates: Dict[Signal, object] = {}
        nonzero = False
        for target, faults in self._sig_faults.items():
            ctrl = self._controls[target]
            acc = self._accumulate(faults, cycle)
            for sig, value in ((ctrl.flip, acc[FaultKind.TRANSIENT]),
                               (ctrl.stuck1, acc[FaultKind.STUCK_AT_1]),
                               (ctrl.stuck0, acc[FaultKind.STUCK_AT_0])):
                if self._applied.get(sig, 0 if not self._per_lane
                                     else None) != value:
                    updates[sig] = value
                    self._applied[sig] = value
                if (value != 0) if not self._per_lane else any(value):
                    nonzero = True
        self._nonzero = nonzero
        mem_ops: List[Tuple[Mem, int, FaultKind, int, Optional[int]]] = []
        if in_window:
            for mem, f in self._mem_faults:
                if f.kind is FaultKind.TRANSIENT:
                    # one persistent upset at its scheduled cycle
                    if cycle == f.cycle:
                        self.events += 1
                        mem_ops.append((mem, f.addr, f.kind, f.mask, f.lane))
                elif f.active_at(cycle):
                    self.events += 1
                    mem_ops.append((mem, f.addr, f.kind, f.mask, f.lane))
        return updates, mem_ops
