"""Compiled simulation backend.

Generates a flat Python function for the whole netlist (the same trick
Verilator plays with C++): every expression node becomes one local
assignment, signals become list slots, and a full clock cycle is one
function call.  This is what makes simulating the 30-stage AES pipeline
for thousands of cycles practical in pure Python.

The generated module defines two functions:

``eval_comb(state, mems, env)``
    Computes every combinational signal into ``env`` (a list indexed by
    combinational-signal index).

``step(state, mems, env)``
    ``eval_comb`` plus register/memory commit, in place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from ..netlist import Netlist
from ..nodes import Node
from ..types import mask_for
from .interp import ScalarBackend

# -- module-level compile cache ------------------------------------------------
#
# Generating and exec-ing the straight-line step function is the expensive
# part of constructing a Simulator (~250 ms for the full protected
# accelerator).  The generated code only ever refers to *positions* in the
# state/env/mems containers, so any two netlists with equal structural
# fingerprints (see ``Netlist.fingerprint``) can share one compiled
# program.  Tests and benchmarks that re-elaborate the same design dozens
# of times then pay for code generation exactly once.

_COMPILE_CACHE: "OrderedDict[str, Tuple[str, object, object]]" = OrderedDict()
_CACHE_CAPACITY = 128
_cache_hits = 0
_cache_misses = 0


def clear_compile_cache() -> None:
    """Drop every cached program (and reset the hit/miss counters)."""
    global _cache_hits, _cache_misses
    _COMPILE_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


def compile_cache_stats() -> Dict[str, int]:
    return {
        "entries": len(_COMPILE_CACHE),
        "hits": _cache_hits,
        "misses": _cache_misses,
    }


class CompiledBackend(ScalarBackend):
    """Netlist compiled to straight-line Python."""

    def __init__(self, netlist: Netlist):
        global _cache_hits, _cache_misses
        super().__init__(netlist)

        fp = netlist.fingerprint()
        cached = _COMPILE_CACHE.get(fp)
        if cached is not None:
            _cache_hits += 1
            _COMPILE_CACHE.move_to_end(fp)
            self.source, self._eval_comb, self._step = cached
            return
        _cache_misses += 1
        self.source = self._generate()
        namespace: Dict[str, object] = {}
        exec(compile(self.source, f"<netlist:{netlist.root.path}>", "exec"), namespace)
        self._eval_comb = namespace["eval_comb"]
        self._step = namespace["step"]
        _COMPILE_CACHE[fp] = (self.source, self._eval_comb, self._step)
        while len(_COMPILE_CACHE) > _CACHE_CAPACITY:
            _COMPILE_CACHE.popitem(last=False)

    # -- backend protocol (storage and slots: ScalarBackend) ----------------------
    def eval_comb(self, state: List[int], mems, env: List[int]) -> None:
        self._eval_comb(state, mems, env)

    def step(self, state: List[int], mems, env: List[int]) -> None:
        self._step(state, mems, env)

    # -- code generation ----------------------------------------------------------
    def _generate(self) -> str:
        nl = self.netlist
        lines: List[str] = []
        emit = lines.append

        def gen_expr_code(roots: List[Node], memo: Dict[int, str], out: List[str]) -> None:
            """Emit assignments for every node reachable from roots."""
            from ..nodes import walk

            for node in walk(roots):
                nid = id(node)
                if nid in memo:
                    continue
                memo[nid] = self._emit_node(node, memo, out)

        header = [
            "# Auto-generated by repro.hdl.sim.compiler; do not edit.",
        ]

        # ---- eval_comb -------------------------------------------------------
        body: List[str] = []
        memo: Dict[int, str] = {}
        for sig in list(nl.inputs) + list(nl.regs):
            memo[id(sig)] = f"state[{self.state_index[sig]}]"
        for sig in nl.comb:
            driver = nl.drivers[sig]
            gen_expr_code([driver], memo, body)
            idx = self.comb_index[sig]
            body.append(f"env[{idx}] = {memo[id(driver)]}  # {sig.path}")
            memo[id(sig)] = f"env[{idx}]"

        emit("def eval_comb(state, mems, env):")
        for line in body or ["pass"]:
            emit(f"    {line}")
        emit("")

        # ---- step -----------------------------------------------------------
        body2: List[str] = list(body)  # recompute comb inside step
        memo2: Dict[int, str] = dict(memo)

        commit_regs: List[str] = []
        for i, (reg, nxt) in enumerate(nl.reg_next.items()):
            gen_expr_code([nxt], memo2, body2)
            body2.append(f"_rn{i} = {memo2[id(nxt)]}  # next {reg.path}")
            commit_regs.append(f"state[{self.state_index[reg]}] = _rn{i}")

        mem_commits: List[str] = []
        for mem, writes in nl.mem_writes.items():
            midx = self.mem_index[mem]
            for j, w in enumerate(writes):
                roots = [w.addr, w.data] + ([w.cond] if w.cond is not None else [])
                gen_expr_code(roots, memo2, body2)
                addr_v = memo2[id(w.addr)]
                data_v = memo2[id(w.data)]
                tag = f"_mw{midx}_{j}"
                body2.append(f"{tag}_a = {addr_v}")
                body2.append(f"{tag}_d = {data_v}")
                if w.cond is not None:
                    body2.append(f"{tag}_c = {memo2[id(w.cond)]}")
                    guard = f"if {tag}_c and {tag}_a < {mem.depth}:"
                else:
                    guard = f"if {tag}_a < {mem.depth}:"
                mem_commits.append(f"{guard} mems[{midx}][{tag}_a] = {tag}_d")

        emit("def step(state, mems, env):")
        for line in body2 or ["pass"]:
            emit(f"    {line}")
        for line in commit_regs:
            emit(f"    {line}")
        for line in mem_commits:
            emit(f"    {line}")
        if not (body2 or commit_regs or mem_commits):
            emit("    pass")
        emit("")

        return "\n".join(header + lines)

    def _emit_node(self, node: Node, memo: Dict[int, str], out: List[str]) -> str:
        """Emit code for one node; returns the expression/var string."""
        kind = node.kind
        if kind == "const":
            return repr(node.value)
        if kind == "signal":
            raise AssertionError(
                f"unseeded signal leaf {node.path}; netlist ordering bug"
            )

        n = len(out)
        var = f"v{n}_{id(node) & 0xffff:x}"

        if kind == "unary":
            a = memo[id(node.a)]
            if node.op == "not":
                expr = f"(~{a}) & {mask_for(node.width)}"
            elif node.op == "redor":
                expr = f"(1 if {a} != 0 else 0)"
            elif node.op == "redand":
                expr = f"(1 if {a} == {mask_for(node.a.width)} else 0)"
            elif node.op == "redxor":
                expr = f"bin({a}).count('1') & 1"
            else:  # pragma: no cover
                raise AssertionError(node.op)
        elif kind == "binary":
            a = memo[id(node.a)]
            b = memo[id(node.b)]
            op = node.op
            m = mask_for(node.width)
            table = {
                "and": f"{a} & {b}",
                "or": f"{a} | {b}",
                "xor": f"{a} ^ {b}",
                "add": f"({a} + {b}) & {m}",
                "sub": f"({a} - {b}) & {m}",
                "mul": f"({a} * {b}) & {m}",
                "eq": f"(1 if {a} == {b} else 0)",
                "ne": f"(1 if {a} != {b} else 0)",
                "lt": f"(1 if {a} < {b} else 0)",
                "le": f"(1 if {a} <= {b} else 0)",
                "gt": f"(1 if {a} > {b} else 0)",
                "ge": f"(1 if {a} >= {b} else 0)",
                "shl": f"({a} << {b}) & {m}",
                "shr": f"{a} >> {b}",
            }
            expr = table[op]
        elif kind == "mux":
            s = memo[id(node.sel)]
            t = memo[id(node.if_true)]
            f = memo[id(node.if_false)]
            expr = f"({t} if {s} else {f})"
        elif kind == "slice":
            a = memo[id(node.a)]
            if node.lo == 0 and node.hi == node.a.width - 1:
                expr = a
            elif node.lo == 0:
                expr = f"{a} & {mask_for(node.width)}"
            else:
                expr = f"({a} >> {node.lo}) & {mask_for(node.width)}"
        elif kind == "concat":
            parts = []
            shift = 0
            for p in reversed(node.parts):
                pv = memo[id(p)]
                if shift == 0:
                    parts.append(pv)
                else:
                    parts.append(f"({pv} << {shift})")
                shift += p.width
            expr = " | ".join(parts)
        elif kind == "memread":
            a = memo[id(node.addr)]
            midx = self.mem_index[node.mem]
            pow2 = (node.mem.depth & (node.mem.depth - 1)) == 0
            covered = node.mem.depth >= (1 << node.addr.width)
            if pow2 and covered:
                expr = f"mems[{midx}][{a}]"
            else:
                expr = f"(mems[{midx}][{a}] if {a} < {node.mem.depth} else 0)"
        elif kind == "downgrade":
            return memo[id(node.a)]
        else:  # pragma: no cover
            raise AssertionError(kind)

        out.append(f"{var} = {expr}")
        return var
