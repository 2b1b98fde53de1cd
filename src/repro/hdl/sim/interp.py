"""Interpreter simulation backend.

This backend defines the reference semantics of the netlist: values are
computed by an explicit operands-first traversal of each expression DAG
with per-cycle memoisation.  It is deliberately simple — the compiled
backend (:mod:`repro.hdl.sim.compiler`) is differentially tested against
it.

:class:`ScalarBackend` is the single-lane storage both scalar backends
share: the ``(state, mems, env)`` lists their ``eval_comb``/``step``
take, and the slot accessors of the backend protocol (see
:mod:`repro.hdl.sim.engine`).
"""

from __future__ import annotations

from typing import Dict, List

from ..netlist import Netlist
from ..nodes import Node, UnknownSignalError, walk


class ScalarBackend:
    """One lane of a netlist in flat lists.

    ``state`` holds the inputs then the registers, ``env`` the
    combinational signals in evaluation order, ``mems`` one word list per
    memory.  There is one lane, so a ``lane`` argument is 0, or None for
    "every lane".
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.state_index = {s: i for i, s in
                            enumerate(list(netlist.inputs) + list(netlist.regs))}
        self.comb_index = {s: i for i, s in enumerate(netlist.comb)}
        self.mem_index = {m: i for i, m in enumerate(netlist.mems)}

    def new_state(self, lanes: int) -> tuple:
        if lanes != 1:
            raise ValueError(
                f"lanes={lanes} requires backend='batched' "
                f"({type(self).__name__} is single-lane)")
        state = [0] * len(self.state_index)
        for reg in self.netlist.regs:
            state[self.state_index[reg]] = reg.init
        return (state, [list(m.init) for m in self.netlist.mems],
                [0] * len(self.comb_index))

    def read(self, args, sig, lane):
        i = self.state_index.get(sig)
        value = args[0][i] if i is not None else args[2][self.comb_index[sig]]
        return value if lane is not None else [value]

    def write(self, args, sig, value: int, lane) -> None:
        args[0][self.state_index[sig]] = value

    def read_mem(self, args, mem, addr: int, lane) -> int:
        return args[1][self.mem_index[mem]][addr]

    def write_mem(self, args, mem, addr: int, value: int, lane) -> None:
        args[1][self.mem_index[mem]][addr] = value

    def mem_rows(self, args, mem) -> List[int]:
        return list(args[1][self.mem_index[mem]])

    def values(self, args, lane) -> List[int]:
        return args[0] + args[2]


class InterpBackend(ScalarBackend):
    """Evaluate a netlist cycle-by-cycle by direct interpretation."""

    def _eval_nodes(self, roots, values, mems, memo) -> None:
        """Evaluate every node reachable from ``roots`` into ``memo``."""
        for node in walk(roots):
            nid = id(node)
            if nid in memo:
                continue
            if node.kind == "signal":
                try:
                    memo[nid] = values[node]
                except KeyError:
                    raise UnknownSignalError(
                        node.path,
                        f"state of netlist {self.netlist.root.path!r} "
                        "(signal referenced but never seeded)") from None
            elif node.kind == "const":
                memo[nid] = node.value
            elif node.kind == "memread":
                addr = memo[id(node.addr)]
                contents = mems[self.mem_index[node.mem]]
                memo[nid] = contents[addr] if addr < len(contents) else 0
            else:
                vals = [memo[id(op)] for op in node.operands()]
                memo[nid] = node.eval_op(vals)

    def eval_comb(self, state: List[int], mems, env: List[int]) -> Dict:
        """Evaluate all combinational signals into ``env``; returns the
        value of every input, register and combinational signal."""
        values = dict(zip(self.state_index, state))
        memo: Dict[int, int] = {}
        nl = self.netlist
        for i, sig in enumerate(nl.comb):
            driver = nl.drivers[sig]
            self._eval_nodes([driver], values, mems, memo)
            env[i] = values[sig] = memo[id(sig)] = memo[id(driver)]
        return values

    def step(self, state: List[int], mems, env: List[int]) -> None:
        """Advance one clock cycle in place."""
        nl = self.netlist
        values = self.eval_comb(state, mems, env)
        # Seed the memo with signal values so reg-next evaluation reuses them.
        memo: Dict[int, int] = {id(sig): value for sig, value in values.items()}

        roots: List[Node] = list(nl.reg_next.values())
        for writes in nl.mem_writes.values():
            for w in writes:
                if w.cond is not None:
                    roots.append(w.cond)
                roots.extend([w.addr, w.data])
        self._eval_nodes(roots, values, mems, memo)

        for reg, nxt in nl.reg_next.items():
            state[self.state_index[reg]] = memo[id(nxt)]

        pending = []
        for mem, writes in nl.mem_writes.items():
            for w in writes:
                if w.cond is None or memo[id(w.cond)] != 0:
                    pending.append((mem, memo[id(w.addr)], memo[id(w.data)]))
        for mem, addr, data in pending:
            contents = mems[self.mem_index[mem]]
            if addr < len(contents):
                contents[addr] = data
