"""Batched (lane-parallel) simulation backend.

Runs N independent instances ("lanes") of one netlist in lockstep: every
signal becomes a numpy row vector of shape ``(lanes,)`` and one generated
``step`` call advances all lanes a full clock cycle.  This is the scaling
primitive for statistical experiments — noninterference sweeps compare
secret-differing lanes pairwise, throughput studies run many stimulus
patterns at once — where constructing N ``Simulator`` objects and
stepping them one by one would pay the full Python interpreter cost per
lane.

Value representation
--------------------
Everything is stored in ``uint64`` *limbs*: a signal of width ``w``
occupies ``ceil(w / 64)`` rows of a ``(rows, lanes)`` uint64 array, limb
0 holding bits 63..0.  The common wide operations of datapath designs
(xor, mux, slice, concat, memory access, equality) are lowered to
limb-wise uint64 ufuncs, so a 128-bit AES state costs two vector ops,
not a Python-object loop.  Operations that are genuinely awkward on
limbs (wide add/sub/mul, wide shifts by a signal, wide ordered
comparisons) fall back to an object-dtype lane of Python ints via
``_pack``/``_unpack`` — exact, just slower, and absent from typical
hardware netlists.

Like the scalar compiled backend, generated programs are cached at
module level keyed by ``Netlist.fingerprint()``.

The testbench entry point is the one
:class:`~repro.hdl.sim.engine.Simulator` front-end::

    sim = Simulator(MyAccel(), backend="batched", lanes=64)
    sim.poke("top.in_valid", 1)                # every lane
    sim.poke("top.in_data", 0xDEAD, lane=3)    # one lane
    sim.step(100)
    sim.peek("top.out_data", lane=3)

:class:`BatchSimulator` is that front-end with the batched backend preset
and a lane-first ``poke(sig, lane, value)``.
"""

from __future__ import annotations

import re
import sys
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

from ..memory import Mem
from ..module import Module
from ..netlist import Netlist
from ..nodes import HdlError, Node, walk
from ..signal import Signal
from ..types import mask_for
from .engine import SignalLike, Simulator

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the test extras
    np = None

_M64 = (1 << 64) - 1


def _require_numpy() -> None:
    if np is None:  # pragma: no cover
        raise HdlError(
            "the batched simulation backend requires numpy "
            "(pip install repro[test])"
        )


def _nlimbs(width: int) -> int:
    return (width + 63) // 64


def _limb_width(width: int, j: int) -> int:
    return min(64, width - 64 * j)


# -- runtime helpers injected into the generated module's namespace ------------

def _make_namespace() -> Dict[str, object]:
    u64 = np.uint64
    z64 = u64(0)
    sf = u64(63)

    if hasattr(np, "bitwise_count"):
        _popcount = np.bitwise_count
    else:  # pragma: no cover - numpy < 2.0
        def _popcount(a):
            return np.fromiter((bin(int(x)).count("1") for x in a),
                               dtype=np.uint64, count=len(a))

    def _shl_u(a, b, w, m):
        """(a << b) & mask(w) with Python semantics for any shift amount."""
        bs = np.minimum(b, sf)
        return np.where(b < u64(w), (a << bs) & u64(m), z64)

    def _shr_u(a, b, w):
        bs = np.minimum(b, sf)
        return np.where(b < u64(w), a >> bs, z64)

    def _pack(*limbs):
        """uint64 limb rows -> object-dtype lane of Python ints."""
        acc = limbs[0].astype(object) if hasattr(limbs[0], "astype") else None
        if acc is None:
            acc = np.full(1, int(limbs[0]), dtype=object)
        for j in range(1, len(limbs)):
            nxt = limbs[j]
            nxt = nxt.astype(object) if hasattr(nxt, "astype") else int(nxt)
            acc = acc | (nxt << (64 * j))
        return acc

    def _unpack(o, j):
        """Limb j of an object-dtype lane, back as uint64."""
        return ((o >> (64 * j)) & _M64).astype(np.uint64)

    def _shl_o(a, b, w, m):
        bs = np.where(b < w, b, 0)
        return np.where(b < w, (a << bs) & m, 0)

    def _shr_o(a, b, w):
        bs = np.where(b < w, b, 0)
        return np.where(b < w, a >> bs, 0)

    return {
        "np": np,
        "_U64": u64,
        "_Z64": z64,
        "_u8": np.uint8,
        "_where": np.where,
        "_copyto": np.copyto,
        "_minimum": np.minimum,
        "_popcount": _popcount,
        "_shl_u": _shl_u,
        "_shr_u": _shr_u,
        "_pack": _pack,
        "_unpack": _unpack,
        "_shl_o": _shl_o,
        "_shr_o": _shr_o,
    }


# uint8 reinterpretation of uint64 rows assumes the platform byte order;
# on a (hypothetical) big-endian host the byte-view fast path is skipped
# and the generic shift+mask lowering is used instead.
_LITTLE_ENDIAN = sys.byteorder == "little"


# -- compile cache -------------------------------------------------------------

_BATCH_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_CACHE_CAPACITY = 64
_cache_hits = 0
_cache_misses = 0


def clear_batch_cache() -> None:
    global _cache_hits, _cache_misses
    _BATCH_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


def batch_cache_stats() -> Dict[str, int]:
    return {
        "entries": len(_BATCH_CACHE),
        "hits": _cache_hits,
        "misses": _cache_misses,
    }


# -- codegen value descriptor --------------------------------------------------

class _V:
    """A codegen-time value.

    ``cls`` is one of:

    * ``"u"`` — uint64 limb rows (``exprs`` has one entry per limb);
    * ``"u8"`` — a single uint8 vector for values of width <= 8 (AES byte
      paths: uint8 arithmetic wraps mod 256, which subsumes the width-8
      mask, and byte-aligned slices of stored rows are free strided
      views);
    * ``"b"`` — a single bool vector (width 1);
    * ``"k"`` — a compile-time constant (``k``).

    ``parts8`` (concat results only) maps byte offsets to the ``_V`` of
    the byte-sized part placed there, so a later byte-aligned slice
    forwards straight to the original value instead of re-extracting it
    from the packed limbs (AES rounds re-slice values they just
    assembled).

    ``base``/``s`` (u8 only): the value is byte ``s`` of the whole-limb
    uint8 reinterpretation named ``base``.  Identical per-byte operations
    on bytes of the same limb are then memoised as a single whole-limb
    ufunc over ``base`` (8 bytes per dispatch) — the AES GF(2^8) ladders
    collapse 16 scalar byte pipelines into 2 limb-wide ones.

    ``nz`` marks a ``"b"`` whose vector is *nonzero-iff-true* rather than
    boolean-typed (the bit-test fusion emits ``x & (1<<k)``); such values
    only ever reach select positions, but consumers that need a real
    numpy bool (``np.copyto``'s ``where=``) must convert first.
    """

    __slots__ = ("cls", "exprs", "k", "width", "parts8", "base", "s", "nz")

    def __init__(self, cls: str, width: int, exprs: Tuple[str, ...] = (),
                 k: int = 0, parts8=None, base: Optional[str] = None,
                 s: int = 0, nz: bool = False):
        self.cls = cls
        self.width = width
        self.exprs = exprs
        self.k = k
        self.parts8 = parts8
        self.base = base
        self.s = s
        self.nz = nz


def _is_view(expr: str) -> bool:
    """True for expressions aliasing backend storage (must be copied
    before the commit phase mutates state/memories).  ``_s*`` are hoisted
    state-row locals, ``M*`` hoisted memory planes, and ``.view(``
    catches uint8 reinterpretations of either."""
    return (expr.startswith(("_s", "M", "st[", "env[", "mems["))
            or ".view(" in expr)


class _Emitter:
    """Generates the vectorised ``eval_comb``/``step`` source."""

    def __init__(self, backend: "BatchedBackend"):
        self.be = backend
        self.nl = backend.netlist
        self._intern: Dict[tuple, int] = {}
        self._skey: Dict[int, int] = {}
        self._n = 0
        # Constant pool: scalar-operand ufunc calls pay a per-call weak
        # scalar conversion (~2x an array-array op at 64 lanes), so every
        # constant used inside a vector expression becomes a pre-broadcast
        # (lanes,) uint64 array, passed in as K.
        self.kpool: Dict[int, int] = {}
        self._sel_only: set = set()
        # Temps that alias backend storage through a uint8 reinterpret
        # (the view-ness is hidden behind the temp name).
        self._viewtmps: set = set()
        # Whole-limb uint8 bases (limb expr -> base name) and memoised
        # slab operations over them; both are reset per function body.
        self._u8base: Dict[str, str] = {}
        self._slabs: Dict[tuple, str] = {}

    def _K(self, value: int) -> str:
        # Emitted as a bare local (bound from K in the function prologue)
        # so each use is a LOAD_FAST, not a list subscript.
        idx = self.kpool.setdefault(value, len(self.kpool))
        return f"K{idx}"

    def _is_view_expr(self, e: str) -> bool:
        return e in self._viewtmps or _is_view(e)

    @staticmethod
    def _mk_u(width: int, exprs: Tuple[str, ...], parts8=None) -> _V:
        """Limb list → ``u`` value, folding to ``k`` when every limb is a
        folded literal (a mux of equal constant arms, an AND with 0...).
        Literal-limb *u* values would otherwise leak Python ints into
        positions that need arrays (``~0`` underflows the uint64 cast,
        an int has no ``.astype``); constants also unlock the dedicated
        constant paths of downstream emitters."""
        if all(e[0].isdigit() for e in exprs):
            k = 0
            for j, e in enumerate(exprs):
                k |= int(e) << (64 * j)
            return _V("k", width, k=k)
        return _V("u", width, exprs, parts8=parts8)

    # -- structural keys (CSE) -------------------------------------------------
    def _key_of(self, t: tuple) -> int:
        k = self._intern.get(t)
        if k is None:
            k = len(self._intern)
            self._intern[t] = k
        return k

    def _assign_keys(self, roots: List[Node]) -> None:
        for node in walk(roots):
            nid = id(node)
            if nid in self._skey:
                continue
            kind = node.kind
            if kind == "signal":
                t = ("s", nid)
            elif kind == "const":
                t = ("k", node.width, node.value)
            elif kind == "memread":
                t = ("m", id(node.mem), self._skey[id(node.addr)])
            elif kind == "slice":
                t = ("sl", node.hi, node.lo, self._skey[id(node.a)])
            elif kind == "downgrade":
                self._skey[nid] = self._skey[id(node.a)]
                continue
            elif kind == "concat":
                t = ("cc",) + tuple(self._skey[id(p)] for p in node.parts)
            elif kind == "mux":
                t = ("mx", self._skey[id(node.sel)],
                     self._skey[id(node.if_true)],
                     self._skey[id(node.if_false)])
            else:
                t = (kind, node.op) + tuple(
                    self._skey[id(o)] for o in node.operands())
            self._skey[nid] = self._key_of(t)

    # -- emission helpers ------------------------------------------------------
    def _tmp(self, body: List[str], expr: str) -> str:
        v = f"t{self._n}"
        self._n += 1
        body.append(f"{v} = {expr}")
        return v

    def _as_bool(self, body, v: _V) -> str:
        """Condition expression (bool or nonzero-uint64 vector)."""
        if v.cls == "b":
            return v.exprs[0]
        if v.cls == "k":
            raise AssertionError("constant condition not folded")
        if len(v.exprs) == 1:
            return v.exprs[0]  # np.where treats nonzero as true
        acc = v.exprs[0]
        for e in v.exprs[1:]:
            acc = self._tmp(body, f"{acc} | {e}")
        return acc

    def _as_u(self, body, v: _V, conv: Dict[int, str]) -> Tuple[str, ...]:
        """Limbs of ``v`` as vector expressions (bool lifted via astype).

        A ``u8`` value is returned as-is: numpy promotion widens it
        wherever it meets a uint64 operand, and every call site that
        could pair two uint8 operands at width > 8 is unreachable
        (``u8`` only exists for nodes of width <= 8)."""
        if v.cls in ("u", "u8"):
            return v.exprs
        if v.cls == "b":
            key = id(v)
            if key not in conv:
                conv[key] = self._tmp(body, f"({v.exprs[0]}).astype(_U64)")
            return (conv[key],)
        raise AssertionError(v.cls)

    def _limb(self, v: _V, j: int):
        """Operand limb j as ('k', int) or ('e', expr, needs_promote).

        The flag marks expressions that are not full-width uint64 (bool
        or uint8 typed): consumers must not elide ops that would
        otherwise force the promotion to uint64 (e.g. the AND-with-full-
        mask fold in ``_emit_bitwise``)."""
        if v.cls == "k":
            return ("k", (v.k >> (64 * j)) & _M64)
        if v.cls == "b":
            return ("e", v.exprs[0], True) if j == 0 else ("k", 0)
        if v.cls == "u8":
            return ("e", v.exprs[0], True) if j == 0 else ("k", 0)
        if j < len(v.exprs):
            e = v.exprs[j]
            if e[0].isdigit():  # folded literal limb, e.g. "0"
                return ("k", int(e))
            return ("e", e, False)
        return ("k", 0)

    # -- whole-limb uint8 slabs ------------------------------------------------
    #
    # AES is byte-parallel: map_bytes applies the same GF(2^8) expression
    # to every byte of a 128-bit word, which the netlist spells as 16
    # independent byte pipelines.  Because uint8 ufuncs never carry across
    # byte boundaries, one op over the whole-limb uint8 view computes all
    # 8 bytes of a limb at once.  Each byte _V remembers its (base, s)
    # coordinate; an op between bytes of the same base at the same offset
    # is memoised per base, so the 2nd..8th byte of a limb reuse the slab
    # result through a free strided view.

    def _u8_byte(self, body, base: str, s: int) -> str:
        t = self._tmp(body, f"{base}[{s}::8]")
        if base in self._viewtmps:
            self._viewtmps.add(t)
        return t

    def _slab(self, body, key: tuple, expr: str) -> str:
        b = self._slabs.get(key)
        if b is None:
            b = self._tmp(body, expr)
            self._slabs[key] = b
        return b

    def _pack_obj(self, body, v: _V) -> str:
        """Materialise ``v`` as an object-dtype lane (slow fallback)."""
        if v.cls == "k":
            return repr(v.k)
        if v.cls in ("b", "u8"):
            return f"({v.exprs[0]}).astype(object)"
        return f"_pack({', '.join(v.exprs)})"

    def _unpack_obj(self, body, expr: str, width: int) -> _V:
        obj = self._tmp(body, expr)
        exprs = tuple(
            self._tmp(body, f"_unpack({obj}, {j})")
            for j in range(_nlimbs(width))
        )
        return _V("u", width, exprs)

    # -- per-node emission -----------------------------------------------------
    def _emit_node(self, body, memo, conv, node: Node) -> _V:
        kind = node.kind
        if kind == "const":
            return _V("k", node.width, k=node.value)
        if kind == "signal":
            raise AssertionError(
                f"unseeded signal leaf {node.path}; netlist ordering bug"
            )
        if kind == "unary":
            return self._emit_unary(body, memo, conv, node)
        if kind == "binary":
            return self._emit_binary(body, memo, conv, node)
        if kind == "mux":
            return self._emit_mux(body, memo, conv, node)
        if kind == "slice":
            return self._emit_slice(body, memo, conv, node)
        if kind == "concat":
            return self._emit_concat(body, memo, conv, node)
        if kind == "memread":
            return self._emit_memread(body, memo, conv, node)
        raise AssertionError(kind)  # pragma: no cover

    def _get(self, memo, node: Node) -> _V:
        return memo[self._skey[id(node)]]

    def _emit_unary(self, body, memo, conv, node) -> _V:
        va = self._get(memo, node.a)
        op = node.op
        if va.cls == "k":
            return _V("k", node.width, k=node.eval_op([va.k]))
        if va.cls == "u8":
            # Python-int literals stay weak scalars, so every op below
            # remains uint8-typed (wrap mod 256 subsumes the width-8 mask).
            e = va.exprs[0]
            if op == "not":
                w = node.width
                if va.base is not None:
                    bx = f"~({va.base})" if w == 8 \
                        else f"(~({va.base})) & {mask_for(w)}"
                    nb = self._slab(body, ("not", va.base, w), bx)
                    return _V("u8", w, (self._u8_byte(body, nb, va.s),),
                              base=nb, s=va.s)
                expr = f"~({e})" if w == 8 \
                    else f"(~({e})) & {mask_for(w)}"
                return _V("u8", w, (self._tmp(body, expr),))
            if op == "redor":
                return _V("b", 1, (self._tmp(body, f"({e}) != 0"),))
            if op == "redand":
                return _V("b", 1, (self._tmp(
                    body, f"({e}) == {mask_for(node.a.width)}"),))
            if op == "redxor":
                return _V("b", 1, (self._tmp(
                    body, f"(_popcount({e}) & 1).astype(bool)"),))
            raise AssertionError(op)  # pragma: no cover
        if op == "not":
            if va.cls == "b":
                return _V("b", 1, (self._tmp(body, f"~({va.exprs[0]})"),))
            out = []
            for j, e in enumerate(va.exprs):
                lw = _limb_width(node.width, j)
                if lw == 64:
                    expr = f"~({e})"
                else:
                    expr = f"(~({e})) & {self._K(mask_for(lw))}"
                out.append(self._tmp(body, expr))
            return _V("u", node.width, tuple(out))
        if va.cls == "b":
            return va  # redor/redand/redxor of a 1-bit value is identity
        if op == "redor":
            acc = va.exprs[0]
            for e in va.exprs[1:]:
                acc = self._tmp(body, f"{acc} | {e}")
            return _V("b", 1, (self._tmp(body, f"({acc}) != {self._K(0)}"),))
        if op == "redand":
            parts = []
            for j, e in enumerate(va.exprs):
                lw = _limb_width(node.a.width, j)
                parts.append(
                    self._tmp(body, f"({e}) == {self._K(mask_for(lw))}"))
            acc = parts[0]
            for p in parts[1:]:
                acc = self._tmp(body, f"{acc} & {p}")
            return _V("b", 1, (acc,))
        if op == "redxor":
            acc = va.exprs[0]
            for e in va.exprs[1:]:
                acc = self._tmp(body, f"{acc} ^ {e}")
            return _V("b", 1, (
                self._tmp(body,
                          f"(_popcount({acc}) & {self._K(1)}).astype(bool)"),))
        raise AssertionError(op)  # pragma: no cover

    def _emit_binary(self, body, memo, conv, node) -> _V:
        va, vb = self._get(memo, node.a), self._get(memo, node.b)
        op = node.op
        w = node.width
        if va.cls == "k" and vb.cls == "k":
            return _V("k", w, k=node.eval_op([va.k, vb.k]))

        if op in ("and", "or", "xor"):
            return self._emit_bitwise(body, node, va, vb)
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            return self._emit_cmp(body, memo, conv, node, va, vb)
        if op in ("shl", "shr"):
            return self._emit_shift(body, memo, conv, node, va, vb)

        # add / sub / mul
        sym = {"add": "+", "sub": "-", "mul": "*"}[node.op]
        if (w <= 8 and "u8" in (va.cls, vb.cls)
                and {va.cls, vb.cls} <= {"u8", "k"}):
            # uint8 arithmetic wraps mod 256, a multiple of 2^w for every
            # w <= 8, so only sub-byte widths need an explicit mask.
            mask = f" & {mask_for(w)}" if w < 8 else ""
            ba = va.base if va.cls == "u8" else None
            bb = vb.base if vb.cls == "u8" else None
            if (ba or bb) and (va.cls == "k" or vb.cls == "k"
                               or (ba and bb and va.s == vb.s)):
                xa = ba or repr(va.k)
                xb = bb or repr(vb.k)
                nb = self._slab(body, ("a", sym, xa, xb, w),
                                f"({xa} {sym} {xb}){mask}")
                s = va.s if ba else vb.s
                return _V("u8", w, (self._u8_byte(body, nb, s),),
                          base=nb, s=s)
            ea = va.exprs[0] if va.cls == "u8" else repr(va.k)
            eb = vb.exprs[0] if vb.cls == "u8" else repr(vb.k)
            return _V("u8", w,
                      (self._tmp(body, f"({ea} {sym} {eb}){mask}"),))
        if w <= 64:
            (ea,), (eb,) = (self._as_u(body, v, conv) if v.cls != "k"
                            else (self._K(v.k),) for v in (va, vb))
            expr = f"({ea} {sym} {eb})"
            if w < 64:
                expr += f" & {self._K(mask_for(w))}"
            return _V("u", w, (self._tmp(body, expr),))
        # wide arithmetic: object-dtype fallback
        oa, ob = self._pack_obj(body, va), self._pack_obj(body, vb)
        sym = {"add": "+", "sub": "-", "mul": "*"}[node.op]
        return self._unpack_obj(
            body, f"(({oa}) {sym} ({ob})) & {mask_for(w)}", w)

    def _emit_bitwise(self, body, node, va: _V, vb: _V) -> _V:
        sym = {"and": "&", "or": "|", "xor": "^"}[node.op]
        w = node.width
        if va.cls == "b" and vb.cls == "b":
            return _V("b", 1, (
                self._tmp(body, f"{va.exprs[0]} {sym} {vb.exprs[0]}"),))
        if (w <= 8 and "u8" in (va.cls, vb.cls)
                and {va.cls, vb.cls} <= {"u8", "b", "k"}):
            # All-byte operands stay uint8 (bools and <=255 literals
            # promote to uint8, not uint64).  Mixed u8/uint64 falls
            # through to the limb path, where promotion widens it.
            if va.cls == "k":
                va, vb = vb, va
            ea = va.exprs[0]
            if vb.cls == "k":
                kb = vb.k  # va is u8 here: a k operand rules out b
                if kb == 0:
                    return _V("k", w, k=0) if sym == "&" else va
                if sym == "&" and kb == mask_for(w):
                    return va
                if va.base is not None:
                    nb = self._slab(body, ("bw", sym, va.base, kb),
                                    f"{va.base} {sym} {kb}")
                    return _V("u8", w, (self._u8_byte(body, nb, va.s),),
                              base=nb, s=va.s)
                return _V("u8", w, (self._tmp(body, f"{ea} {sym} {kb}"),))
            if (va.cls == "u8" and vb.cls == "u8" and va.base is not None
                    and vb.base is not None and va.s == vb.s):
                b1, b2 = sorted((va.base, vb.base))  # and/or/xor commute
                nb = self._slab(body, ("bw", sym, b1, b2),
                                f"{b1} {sym} {b2}")
                return _V("u8", w, (self._u8_byte(body, nb, va.s),),
                          base=nb, s=va.s)
            return _V("u8", w, (
                self._tmp(body, f"{ea} {sym} {vb.exprs[0]}"),))
        out = []
        for j in range(_nlimbs(w)):
            la, lb = self._limb(va, j), self._limb(vb, j)
            if la[0] == "k" and lb[0] == "k":
                kj = {"&": la[1] & lb[1], "|": la[1] | lb[1],
                      "^": la[1] ^ lb[1]}[sym]
                out.append(repr(kj))
                continue
            if la[0] == "k":
                la, lb = lb, la
            # la is an expression; lb is expression or constant
            if lb[0] == "k":
                kb = lb[1]
                if sym == "&" and kb == 0:
                    out.append("0")
                    continue
                if sym in ("|", "^") and kb == 0:
                    if la[2]:
                        # bool/uint8 operand: OR with a uint64 zero so the
                        # resulting limb really is uint64-typed
                        out.append(self._tmp(
                            body, f"{la[1]} | {self._K(0)}"))
                    else:
                        out.append(la[1])
                    continue
                if sym == "&" and not la[2] \
                        and kb == mask_for(_limb_width(w, j)):
                    out.append(la[1])
                    continue
                out.append(self._tmp(body, f"{la[1]} {sym} {self._K(kb)}"))
            else:
                out.append(self._tmp(body, f"{la[1]} {sym} {lb[1]}"))
        return self._mk_u(w, tuple(out))

    def _emit_cmp(self, body, memo, conv, node, va: _V, vb: _V) -> _V:
        op = node.op
        wide = max(node.a.width, node.b.width) > 64
        if op in ("eq", "ne"):
            parts = []
            for j in range(_nlimbs(max(node.a.width, node.b.width))):
                la, lb = self._limb(va, j), self._limb(vb, j)
                ea = la[1] if la[0] == "e" else self._K(la[1])
                eb = lb[1] if lb[0] == "e" else self._K(lb[1])
                parts.append(self._tmp(body, f"({ea}) == ({eb})"))
            acc = parts[0]
            for p in parts[1:]:
                acc = self._tmp(body, f"{acc} & {p}")
            if op == "ne":
                acc = self._tmp(body, f"~({acc})")
            return _V("b", 1, (acc,))
        if not wide:
            la, lb = self._limb(va, 0), self._limb(vb, 0)
            ea = la[1] if la[0] == "e" else self._K(la[1])
            eb = lb[1] if lb[0] == "e" else self._K(lb[1])
            sym = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[op]
            return _V("b", 1, (self._tmp(body, f"({ea}) {sym} ({eb})"),))
        # wide ordered comparison: object fallback
        oa, ob = self._pack_obj(body, va), self._pack_obj(body, vb)
        sym = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[op]
        return _V("b", 1, (self._tmp(body, f"({oa}) {sym} ({ob})"),))

    def _emit_shift(self, body, memo, conv, node, va: _V, vb: _V) -> _V:
        op = node.op
        w = node.width  # == node.a.width
        if vb.cls == "k" and va.cls == "u8":
            sh = vb.k
            if sh >= w:
                return _V("k", w, k=0)
            if sh == 0:
                return va
            if op == "shl":
                mask = f" & {mask_for(w)}" if w < 8 else ""
                expr = f"({va.exprs[0]} << {sh}){mask}"  # u8 wraps mod 256
                bx = f"({va.base} << {sh}){mask}"
            else:
                expr = f"{va.exprs[0]} >> {sh}"
                bx = f"{va.base} >> {sh}"
            if va.base is not None:
                nb = self._slab(body, ("sh", op, sh, va.base, w), bx)
                return _V("u8", w, (self._u8_byte(body, nb, va.s),),
                          base=nb, s=va.s)
            return _V("u8", w, (self._tmp(body, expr),))
        if vb.cls == "k":
            sh = vb.k
            if op == "shl":
                if sh >= w:
                    return _V("k", w, k=0)
                if sh == 0:
                    return va
                limbs = self._as_u(body, va, conv)
                if w <= 64:
                    expr = f"({limbs[0]} << {self._K(sh)})"
                    if w < 64:
                        expr += f" & {self._K(mask_for(w))}"
                    return _V("u", w, (self._tmp(body, expr),))
                return self._shift_limbs_const(body, limbs, w, sh)
            else:
                if sh >= w:
                    return _V("k", w, k=0)
                if sh == 0:
                    return va
                limbs = self._as_u(body, va, conv)
                if w <= 64:
                    return _V(
                        "u", w,
                        (self._tmp(body, f"{limbs[0]} >> {self._K(sh)}"),))
                return self._shift_limbs_const(body, limbs, w, -sh)
        # dynamic shift amount
        if w <= 64 and node.b.width <= 64:
            (ea,) = (self._as_u(body, va, conv) if va.cls != "k"
                     else (self._K(va.k),))
            (eb,) = (self._as_u(body, vb, conv) if vb.cls != "k"
                     else (self._K(vb.k),))
            if op == "shl":
                expr = f"_shl_u({ea}, {eb}, {w}, {mask_for(w)})"
            else:
                expr = f"_shr_u({ea}, {eb}, {w})"
            return _V("u", w, (self._tmp(body, expr),))
        # wide value or wide shift amount: object fallback
        oa, ob = self._pack_obj(body, va), self._pack_obj(body, vb)
        if op == "shl":
            expr = f"_shl_o({oa}, {ob}, {w}, {mask_for(w)})"
        else:
            expr = f"_shr_o({oa}, {ob}, {w})"
        return self._unpack_obj(body, expr, w)

    def _shift_limbs_const(self, body, limbs: Tuple[str, ...], w: int,
                           sh: int) -> _V:
        """Shift multi-limb value by a constant (positive = left)."""
        L = _nlimbs(w)
        out = []
        for j in range(L):
            terms = []
            for i, e in enumerate(limbs):
                # source limb i contributes bits [64i, 64i+64) shifted by sh
                delta = 64 * (j - i) - sh
                if delta == 0:
                    terms.append(e)
                elif 0 < delta < 64:
                    terms.append(f"({e} >> {self._K(delta)})")
                elif -64 < delta < 0:
                    terms.append(f"({e} << {self._K(-delta)})")
            if not terms:
                out.append("0")
                continue
            expr = " | ".join(terms)
            lw = _limb_width(w, j)
            if lw < 64:
                expr = f"({expr}) & {self._K(mask_for(lw))}"
            out.append(self._tmp(body, expr))
        return self._mk_u(w, tuple(out))

    def _emit_mux(self, body, memo, conv, node) -> _V:
        vs = self._get(memo, node.sel)
        vt, vf = self._get(memo, node.if_true), self._get(memo, node.if_false)
        if vs.cls == "k":
            return vt if vs.k != 0 else vf
        nf = node.if_false
        if (node.sel.width == 1 and nf.kind == "const" and nf.value == 0
                and vt.cls != "b"):
            return self._emit_mul_mask(body, node, vs, vt)
        cond = self._as_bool(body, vs)
        w = node.width
        if vt.cls == "b" and vf.cls == "b":
            return _V("b", 1, (self._tmp(
                body, f"_where({cond}, {vt.exprs[0]}, {vf.exprs[0]})"),))
        if (w <= 8 and "u8" in (vt.cls, vf.cls)
                and {vt.cls, vf.cls} <= {"u8", "b", "k"}):
            # Arms stay uint8: bools and <=255 weak-scalar literals
            # promote to the uint8 arm, never to uint64.
            et = vt.exprs[0] if vt.cls != "k" else repr(vt.k)
            ef = vf.exprs[0] if vf.cls != "k" else repr(vf.k)
            return _V("u8", w, (self._tmp(
                body, f"_where({cond}, {et}, {ef})"),))
        out = []
        for j in range(_nlimbs(w)):
            lt, lf = self._limb(vt, j), self._limb(vf, j)
            if lt[0] == "k" and lf[0] == "k" and lt[1] == lf[1]:
                out.append(repr(lt[1]))
                continue
            et = lt[1] if lt[0] == "e" else self._K(lt[1])
            ef = lf[1] if lf[0] == "e" else self._K(lf[1])
            out.append(self._tmp(body, f"_where({cond}, {et}, {ef})"))
        return self._mk_u(w, tuple(out))

    def _emit_mul_mask(self, body, node, vs: _V, vt: _V) -> _V:
        """``mux(c, a, 0)`` with a 1-bit select lowers to ``a * c``.

        The select is excluded from bit-test fusion (see
        ``_sel_only_keys``), so its emitted value is exactly 0 or 1 and a
        multiply replaces ``np.where`` (roughly half the ufunc cost, and
        slab-able on byte paths — this is the xtime conditional-0x1B
        reduction in every GF(2^8) ladder)."""
        w = node.width
        if vt.cls == "k" and vt.k == 0:
            return _V("k", w, k=0)
        if w <= 8 and vt.cls in ("u8", "k") and vs.cls in ("u8", "b"):
            if vs.cls == "u8":
                bt = vt.base if vt.cls == "u8" else None
                if vs.base is not None and (
                        vt.cls == "k" or (bt is not None and vt.s == vs.s)):
                    xt = bt or repr(vt.k)
                    nb = self._slab(body, ("mm", xt, vs.base),
                                    f"{xt} * {vs.base}")
                    return _V("u8", w, (self._u8_byte(body, nb, vs.s),),
                              base=nb, s=vs.s)
                et = vt.exprs[0] if vt.cls == "u8" else repr(vt.k)
                return _V("u8", w, (
                    self._tmp(body, f"({et}) * ({vs.exprs[0]})"),))
            # bool select: reinterpret as uint8 {0,1} to keep the
            # product byte-typed
            et = vt.exprs[0] if vt.cls == "u8" else repr(vt.k)
            return _V("u8", w, (self._tmp(
                body, f"({et}) * ({vs.exprs[0]}).view(_u8)"),))
        # uint64 limbs: bool/uint8 selects promote against the uint64
        # operand (a pooled K array when the arm is constant)
        sel = vs.exprs[0]
        out = []
        for j in range(_nlimbs(w)):
            lt = self._limb(vt, j)
            if lt[0] == "k":
                if lt[1] == 0:
                    out.append("0")
                    continue
                out.append(self._tmp(body, f"({sel}) * {self._K(lt[1])}"))
            else:
                out.append(self._tmp(body, f"({lt[1]}) * ({sel})"))
        return self._mk_u(w, tuple(out))

    def _emit_slice(self, body, memo, conv, node) -> _V:
        va = self._get(memo, node.a)
        if va.cls == "k":
            return _V("k", node.width, k=node.eval_op([va.k]))
        if va.cls == "b":
            return va  # only [0:0] of a 1-bit value is well-formed
        aw, hi, lo, w = node.a.width, node.hi, node.lo, node.width
        if lo == 0 and hi == aw - 1:
            return va
        if w == 8 and lo % 8 == 0 and va.parts8 is not None:
            # The source is a concat of byte-sized parts: forward to the
            # part at this offset instead of re-slicing the packed limbs.
            ent = va.parts8.get(lo)
            if ent is not None:
                return ent
        if va.cls == "u8":
            e = va.exprs[0]
            if w == 1 and self._skey[id(node)] in self._sel_only:
                if va.base is not None:
                    nb = self._slab(body, ("bt", lo, va.base),
                                    f"{va.base} & {1 << lo}")
                    return _V("b", 1, (self._u8_byte(body, nb, va.s),),
                              nz=True)
                return _V("b", 1, (self._tmp(body, f"{e} & {1 << lo}"),),
                          nz=True)
            if lo == 0:
                expr = f"{e} & {mask_for(w)}"
                bx = f"{va.base} & {mask_for(w)}"
            elif hi == aw - 1:
                expr = f"{e} >> {lo}"
                bx = f"{va.base} >> {lo}"
            else:
                expr = f"({e} >> {lo}) & {mask_for(w)}"
                bx = f"({va.base} >> {lo}) & {mask_for(w)}"
            if va.base is not None:
                nb = self._slab(body, ("slc", hi, lo, va.base), bx)
                return _V("u8", w, (self._u8_byte(body, nb, va.s),),
                          base=nb, s=va.s)
            return _V("u8", w, (self._tmp(body, expr),))
        if w == 1 and self._skey[id(node)] in self._sel_only:
            # This bit is only ever tested for nonzero (mux select), so a
            # single masked AND replaces the shift+mask pair.  The value
            # is 0 or 1<<lo, which np.where treats identically to 0/1.
            p, s = lo // 64, lo % 64
            if p >= len(va.exprs):
                return _V("k", 1, k=0)
            t = self._tmp(body, f"{va.exprs[p]} & {self._K(1 << s)}")
            return _V("b", 1, (t,), nz=True)
        if w == 8 and lo % 8 == 0 and _LITTLE_ENDIAN:
            # Byte-aligned byte extraction: reinterpret the uint64 limb
            # row as uint8 and take a strided view — no ufunc at all.
            p, s = lo // 64, (lo % 64) // 8
            if p >= len(va.exprs):
                return _V("k", 8, k=0)
            e = va.exprs[p]
            if e.isidentifier() or e.startswith(("_s", "M", "st[", "env[",
                                                 "mems[")):
                base = self._u8base.get(e)
                if base is None:
                    base = self._tmp(body, f"({e}).view(_u8)")
                    self._u8base[e] = base
                    if self._is_view_expr(e):
                        self._viewtmps.add(base)
                return _V("u8", 8, (self._u8_byte(body, base, s),),
                          base=base, s=s)
        if aw <= 64:
            e = va.exprs[0]
            if lo == 0:
                expr = f"{e} & {self._K(mask_for(w))}"
            elif hi == aw - 1:
                expr = f"{e} >> {self._K(lo)}"
            else:
                expr = f"({e} >> {self._K(lo)}) & {self._K(mask_for(w))}"
            return _V("u", w, (self._tmp(body, expr),))
        # wide source: assemble each result limb from 1-2 source limbs
        out = []
        La = len(va.exprs)
        for j in range(_nlimbs(w)):
            bitpos = lo + 64 * j
            p, s = bitpos // 64, bitpos % 64
            lw = _limb_width(w, j)
            if s == 0:
                expr = va.exprs[p]
                if lw < 64:
                    expr = f"{expr} & {self._K(mask_for(lw))}"
                elif j == 0 and _nlimbs(w) == 1:
                    # full aligned 64-bit limb: pure view passthrough
                    return _V("u", w, (va.exprs[p],))
            else:
                expr = f"({va.exprs[p]} >> {self._K(s)})"
                if p + 1 < La and lw > 64 - s:
                    expr += f" | ({va.exprs[p + 1]} << {self._K(64 - s)})"
                if lw < 64:
                    expr = f"({expr}) & {self._K(mask_for(lw))}"
            out.append(self._tmp(body, expr))
        return _V("u", w, tuple(out))

    def _emit_concat(self, body, memo, conv, node) -> _V:
        parts = [self._get(memo, p) for p in node.parts]
        if all(p.cls == "k" for p in parts):
            return _V("k", node.width,
                      k=node.eval_op([p.k for p in parts]))
        w = node.width
        L = _nlimbs(w)
        # terms[j] holds (expr, is_uint8_typed) pairs for limb j
        terms: List[List[Tuple[str, bool]]] = [[] for _ in range(L)]
        kacc = [0] * L
        parts8: Dict[int, _V] = {}
        # bytemap[j]: byte position -> u8 part _V, for whole-base repack
        bytemap: List[Dict[int, _V]] = [dict() for _ in range(L)]
        all_bytes = True
        offset = 0
        for pnode, pv in zip(reversed(node.parts), reversed(parts)):
            pw = pnode.width
            if pw == 8 and offset % 8 == 0:
                if pv.cls in ("k", "u8", "u"):
                    parts8[offset] = pv
                    if pv.cls == "u8" and pv.base is not None:
                        bytemap[offset // 64][(offset % 64) // 8] = pv
                else:
                    all_bytes = False
            else:
                all_bytes = False
            if pv.cls == "k":
                kval = pv.k << offset
                for j in range(L):
                    kacc[j] |= (kval >> (64 * j)) & _M64
            elif pv.cls == "u8":
                tgt, s = offset // 64, offset % 64
                if s == 0:
                    terms[tgt].append((pv.exprs[0], True))
                elif w <= 8:
                    # literal shift keeps uint8 (s + pw <= 8, no wrap)
                    terms[tgt].append((f"({pv.exprs[0]} << {s})", True))
                else:
                    # uint8 << uint64 promotes, then wraps mod 2^64:
                    # exactly the limb split
                    terms[tgt].append(
                        (f"({pv.exprs[0]} << {self._K(s)})", False))
            else:
                limbs = self._as_u(body, pv, conv)
                for i, e in enumerate(limbs):
                    lw = _limb_width(pw, i)
                    bitpos = offset + 64 * i
                    tgt, s = bitpos // 64, bitpos % 64
                    if s == 0:
                        terms[tgt].append((e, False))
                    else:
                        # uint64 << wraps mod 2^64: exactly the limb split
                        terms[tgt].append(
                            (f"({e} << {self._K(s)})", False))
                        if s + lw > 64 and tgt + 1 < L:
                            terms[tgt + 1].append(
                                (f"({e} >> {self._K(64 - s)})", False))
            offset += pw
        if L == 1 and w <= 8:
            # A byte-or-narrower concat: keep it uint8-typed when every
            # term is (the first uint64 term would promote the OR chain).
            ts = [e for e, _ in terms[0]]
            all_u8 = all(f for _, f in terms[0])
            if kacc[0]:
                ts.append(repr(kacc[0]))  # <= mask(w) <= 255: stays uint8
            if len(ts) == 1:
                e, f = terms[0][0]
                if e.startswith("("):
                    e = self._tmp(body, e)
                return _V("u8" if f else "u", w, (e,))
            joined = self._tmp(body, " | ".join(ts))
            return _V("u8" if all_u8 else "u", w, (joined,))
        out = []
        for j in range(L):
            bm = bytemap[j]
            if (len(bm) == 8 and _LITTLE_ENDIAN
                    and len({v.base for v in bm.values()}) == 1
                    and all(v.s == s for s, v in bm.items())):
                # All 8 bytes of this limb are bytes s=0..7 of one slab:
                # the limb IS that slab reinterpreted as uint64.  This
                # undoes the shift/or packing for values that went
                # through a whole-limb byte pipeline (e.g. sub_bytes ->
                # xtime ladders) — the concat costs one view.
                base = next(iter(bm.values())).base
                t = self._tmp(body, f"({base}).view(_U64)")
                if base in self._viewtmps:
                    self._viewtmps.add(t)
                out.append(t)
                continue
            ts = terms[j]
            kstr = repr(kacc[j]) if kacc[j] else None
            if not ts:
                out.append(kstr or "0")
                continue
            # A limb whose only array term is uint8-typed would leave a
            # uint8 array posing as a uint64 limb; OR in a uint64 zero to
            # force the promotion.  Multi-term limbs promote on their own
            # (at most one term per limb sits unshifted at bit 0).
            if len(ts) == 1 and kstr is None:
                e, is_u8 = ts[0]
                if is_u8:
                    out.append(self._tmp(body, f"{e} | {self._K(0)}"))
                elif e.startswith("("):
                    out.append(self._tmp(body, e))
                else:
                    out.append(e)
                continue
            exprs = [e for e, _ in ts]
            if kstr is not None:
                if len(ts) == 1 and ts[0][1]:
                    # Single uint8 term: a bare literal would either keep
                    # the limb uint8 (<=255) or overflow the weak-scalar
                    # conversion (>255); OR with the pooled uint64 array.
                    exprs.append(self._K(kacc[j]))
                else:
                    exprs.append(kstr)
            out.append(self._tmp(body, " | ".join(exprs)))
        return self._mk_u(
            w, tuple(out),
            parts8=parts8 if (all_bytes and parts8) else None)

    def _emit_memread(self, body, memo, conv, node) -> _V:
        mem = node.mem
        row0, L = self.be.mem_slot[mem]
        va = self._get(memo, node.addr)
        depth = mem.depth
        if va.cls == "k":
            if va.k >= depth:
                return _V("k", node.width, k=0)
            exprs = tuple(f"M{row0 + j}[{va.k}]" for j in range(L))
            return _V("u", node.width, exprs)
        pow2 = (depth & (depth - 1)) == 0
        covered = depth >= (1 << node.addr.width)
        if (pow2 and covered and L == 1 and va.cls == "u8"
                and va.base is not None):
            # Byte-vector address (e.g. S-box input): gather all 8 bytes
            # of the limb in one fancy index.  base is (lanes*8,) laid
            # out lane-major, so reshape(-1, 8).T gives an (8, lanes)
            # index whose row s addresses byte s of every lane.
            g = self._slab(body, ("mr", id(mem), va.base),
                           f"M{row0}[({va.base}).reshape(-1, 8).T, ln]")
            return _V("u", node.width, (self._tmp(body, f"{g}[{va.s}]"),))
        (addr,) = self._as_u(body, va, conv)
        if pow2 and covered:
            exprs = tuple(
                self._tmp(body, f"M{row0 + j}[{addr}, ln]")
                for j in range(L)
            )
            return _V("u", node.width, exprs)
        ok = self._tmp(body, f"{addr} < {self._K(depth)}")
        clamped = self._tmp(body, f"_minimum({addr}, {self._K(depth - 1)})")
        exprs = tuple(
            self._tmp(
                body,
                f"_where({ok}, M{row0 + j}[{clamped}, ln], "
                f"{self._K(0)})")
            for j in range(L)
        )
        return _V("u", node.width, exprs)

    # -- function bodies -------------------------------------------------------
    def _seed_state(self, memo) -> None:
        # Seeds are the hoisted row locals (bound in the prologue), so
        # each use is a LOAD_FAST rather than an array subscript.
        for sig, (row0, L) in self.be.state_slot.items():
            exprs = tuple(f"_s{row0 + j}" for j in range(L))
            memo[self._skey.setdefault(id(sig), self._key_of(("s", id(sig))))] \
                = _V("u", sig.width, exprs)

    def _emit_expr_dag(self, body, memo, conv, roots: List[Node]) -> None:
        for n in walk(roots):
            key = self._skey[id(n)]
            if key in memo:
                continue
            memo[key] = self._emit_node(body, memo, conv, n)

    def _emit_comb(self, body, memo, conv,
                   needed: Optional[set], store: bool) -> None:
        nl = self.nl
        for sig in nl.comb:
            if needed is not None and sig not in needed:
                continue
            driver = nl.drivers[sig]
            self._emit_expr_dag(body, memo, conv, [driver])
            val = self._get(memo, driver)
            if store:
                row0, L = self.be.comb_slot[sig]
                for j in range(L):
                    lk = self._limb(val, j)
                    src = lk[1] if lk[0] == "e" else repr(lk[1])
                    body.append(f"env[{row0 + j}] = {src}")
            memo[self._skey.setdefault(
                id(sig), self._key_of(("s", id(sig))))] = val

    def _step_needed_comb(self) -> set:
        """Comb signals transitively needed by reg-nexts and mem writes."""
        nl = self.nl
        roots: List[Node] = list(nl.reg_next.values())
        for writes in nl.mem_writes.values():
            for wr in writes:
                if wr.cond is not None:
                    roots.append(wr.cond)
                roots.extend([wr.addr, wr.data])
        needed = set()
        comb_set = set(nl.comb)
        stack = list(roots)
        seen = set()
        while stack:
            n = stack.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            if n.kind == "signal":
                if n in comb_set and n not in needed:
                    needed.add(n)
                    stack.append(nl.drivers[n])
                continue
            stack.extend(n.operands())
        return needed

    def _sel_only_keys(self, value_roots: List[Node]) -> set:
        """Structural keys used *exclusively* as mux selects in this body.

        Nodes in this set only ever feed nonzero tests, so their emitted
        value may be any nonzero-iff-true vector (enables the bit-test
        fusion in ``_emit_slice``).  Computed over structural keys, not
        node ids, so a CSE hit can never leak a test-only value into a
        value position.
        """
        value_keys = set()
        sel_keys = set()
        for r in value_roots:
            value_keys.add(self._skey[id(r)])
        for n in walk(value_roots):
            if n.kind == "mux":
                nf = n.if_false
                if (n.sel.width == 1 and nf.kind == "const"
                        and nf.value == 0):
                    # mux(c, a, 0) lowers to a * c (_emit_mul_mask): the
                    # select is consumed as an exact 0/1 value
                    value_keys.add(self._skey[id(n.sel)])
                else:
                    sel_keys.add(self._skey[id(n.sel)])
                value_keys.add(self._skey[id(n.if_true)])
                value_keys.add(self._skey[id(n.if_false)])
            else:
                for o in n.operands():
                    value_keys.add(self._skey[id(o)])
        return sel_keys - value_keys

    def _staged(self, body, val: _V) -> _V:
        """Copy storage views so the commit phase reads pre-commit values."""
        if val.cls not in ("u", "u8"):
            return val
        exprs = tuple(
            self._tmp(body, f"({e}).copy()") if self._is_view_expr(e) else e
            for e in val.exprs
        )
        return _V(val.cls, val.width, exprs)

    _TMP_ASSIGN_RE = re.compile(r"^(t\d+|_wm\d+) = ")
    _TMP_TOKEN_RE = re.compile(r"\b(?:t\d+|_wm\d+)\b")
    _HOIST_RE = re.compile(r"\b(_s|M|K)(\d+)\b")

    def _dce(self, body: List[str], keep_tail: List[str]) -> List[str]:
        """Drop temp assignments whose target is never read.

        Byte-slice forwarding and constant folding leave whole chains
        (notably re-packing concats whose every consumer was a byte
        slice) with no remaining readers; one backward liveness pass
        removes them.  Lines with non-temp targets (env stores) are
        effects and always survive."""
        used = set()
        for line in keep_tail:
            used.update(self._TMP_TOKEN_RE.findall(line))
        out: List[str] = []
        for line in reversed(body):
            m = self._TMP_ASSIGN_RE.match(line)
            if m and m.group(1) not in used:
                continue
            used.update(self._TMP_TOKEN_RE.findall(line))
            out.append(line)
        out.reverse()
        return out

    def _prologue(self, fbody: List[str]) -> List[str]:
        """Bind every referenced state row / memory plane / pooled
        constant to a local, so later uses are LOAD_FASTs."""
        used = {"_s": set(), "M": set(), "K": set()}
        for line in fbody:
            for pfx, num in self._HOIST_RE.findall(line):
                used[pfx].add(int(num))
        pro = [f"_s{r} = st[{r}]" for r in sorted(used["_s"])]
        pro += [f"M{r} = mems[{r}]" for r in sorted(used["M"])]
        pro += [f"K{i} = K[{i}]" for i in sorted(used["K"])]
        return pro

    def generate(self) -> Tuple[str, List[int]]:
        nl = self.nl

        roots = nl.all_roots()
        self._assign_keys(roots)

        # ---- eval_comb -------------------------------------------------------
        body: List[str] = []
        memo: Dict[int, _V] = {}
        conv: Dict[int, str] = {}
        eval_roots = [nl.drivers[s] for s in nl.comb]
        self._sel_only = self._sel_only_keys(eval_roots)
        self._u8base = {}
        self._slabs = {}
        self._seed_state(memo)
        self._emit_comb(body, memo, conv, needed=None, store=True)

        # ---- step ------------------------------------------------------------
        # Only the comb cone feeding registers and memory writes is
        # evaluated; the engine re-settles lazily before the next peek.
        body2: List[str] = []
        memo2: Dict[int, _V] = {}
        conv2: Dict[int, str] = {}
        needed = self._step_needed_comb()
        step_roots: List[Node] = [nl.drivers[s] for s in nl.comb
                                  if s in needed]
        step_roots.extend(nl.reg_next.values())
        for writes in nl.mem_writes.values():
            for wr in writes:
                # Write conditions count as value uses: the commit phase
                # needs a true boolean mask for fancy indexing.
                step_roots.extend(
                    [wr.addr, wr.data]
                    + ([wr.cond] if wr.cond is not None else []))
        self._sel_only = self._sel_only_keys(step_roots)
        self._u8base = {}
        self._slabs = {}
        self._seed_state(memo2)
        self._emit_comb(body2, memo2, conv2, needed=needed, store=False)

        commits: List[str] = []
        mask_memo: Dict[int, str] = {}
        for reg, nxt in nl.reg_next.items():
            row0, L = self.be.state_slot[reg]
            # Enable-register fusion: `reg <= mux(en, new, reg)` (the
            # dominant pattern in a stall-capable pipeline) commits as a
            # masked in-place copy — no np.where, no full-row store, and
            # the old-value arm is never materialised.  Only when the
            # mux itself isn't needed as a value elsewhere in this body.
            if (nxt.kind == "mux"
                    and self._skey[id(nxt.if_false)] == self._skey[id(reg)]
                    and self._skey[id(nxt)] not in memo2):
                self._emit_expr_dag(body2, memo2, conv2,
                                    [nxt.sel, nxt.if_true])
                vs = self._get(memo2, nxt.sel)
                if vs.cls == "k" and vs.k == 0:
                    continue  # enable tied low: register never changes
                val = self._staged(body2, self._get(memo2, nxt.if_true))
                if vs.cls == "k":
                    for j in range(L):
                        lk = self._limb(val, j)
                        src = lk[1] if lk[0] == "e" else repr(lk[1])
                        commits.append(f"st[{row0 + j}] = {src}")
                    continue
                selkey = self._skey[id(nxt.sel)]
                mask = mask_memo.get(selkey)
                if mask is None:
                    cond = self._as_bool(body2, vs)
                    if vs.cls == "b" and not vs.nz:
                        mask = cond
                    else:
                        mask = self._tmp(body2, f"({cond}).astype(bool)")
                    mask_memo[selkey] = mask
                for j in range(L):
                    lk = self._limb(val, j)
                    src = lk[1] if lk[0] == "e" else repr(lk[1])
                    commits.append(
                        f"_copyto(st[{row0 + j}], {src}, where={mask})")
                continue
            self._emit_expr_dag(body2, memo2, conv2, [nxt])
            val = self._staged(body2, self._get(memo2, nxt))
            for j in range(L):
                lk = self._limb(val, j)
                src = lk[1] if lk[0] == "e" else repr(lk[1])
                commits.append(f"st[{row0 + j}] = {src}")

        wm = 0
        for mem, writes in nl.mem_writes.items():
            row0, L = self.be.mem_slot[mem]
            depth = mem.depth
            pow2 = (depth & (depth - 1)) == 0
            for wr in writes:
                roots_w = [wr.addr, wr.data] + (
                    [wr.cond] if wr.cond is not None else [])
                self._emit_expr_dag(body2, memo2, conv2, roots_w)
                vc = self._get(memo2, wr.cond) if wr.cond is not None else None
                if vc is not None and vc.cls == "k" and vc.k == 0:
                    continue
                va = self._staged(body2, self._get(memo2, wr.addr))
                vd = self._staged(body2, self._get(memo2, wr.data))
                covered = depth >= (1 << wr.addr.width)
                masks: List[str] = []
                if vc is not None and vc.cls != "k":
                    masks.append(self._as_bool(body2, vc)
                                 if vc.cls == "b" else
                                 f"({vc.exprs[0]}) != {self._K(0)}")
                addr_const = va.cls == "k"
                if addr_const and va.k >= depth:
                    continue
                if not addr_const and not (pow2 and covered):
                    masks.append(f"({va.exprs[0]}) < {self._K(depth)}")
                mexpr = None
                if masks:
                    mvar = f"_wm{wm}"
                    wm += 1
                    body2.append(f"{mvar} = " + " & ".join(
                        f"({m})" for m in masks))
                    mexpr = mvar
                for j in range(L):
                    ld = self._limb(vd, j)
                    dsrc = ld[1] if ld[0] == "e" else repr(ld[1])
                    dst = f"M{row0 + j}"
                    if mexpr is None:
                        if addr_const:
                            commits.append(f"{dst}[{va.k}] = {dsrc}")
                        else:
                            commits.append(f"{dst}[{va.exprs[0]}, ln] = {dsrc}")
                    else:
                        didx = f"{dsrc}[{mexpr}]" if ld[0] == "e" else dsrc
                        if addr_const:
                            commits.append(
                                f"{dst}[{va.k}, ln[{mexpr}]] = {didx}")
                        else:
                            commits.append(
                                f"{dst}[({va.exprs[0]})[{mexpr}], "
                                f"ln[{mexpr}]] = {didx}")

        lines: List[str] = [
            "# Auto-generated by repro.hdl.sim.batched; do not edit.",
            "# Free variables (np, _U64, _Z64, _u8, _where, _minimum,",
            "# _popcount, _shl_u, _shr_u, _pack, _unpack, _shl_o, _shr_o)",
            "# are injected at exec time; K holds pre-broadcast (lanes,)",
            "# uint64 constant arrays, bound to locals in each prologue.",
        ]
        eval_body = self._dce(body, [])
        step_body = self._dce(body2, commits) + commits
        for name, fbody in (("eval_comb", eval_body), ("step", step_body)):
            lines.append(f"def {name}(st, mems, env, ln, K):")
            for ln_ in (self._prologue(fbody) + fbody) or ["pass"]:
                lines.append(f"    {ln_}")
            lines.append("")
        kvalues = [v for v, _ in sorted(self.kpool.items(),
                                        key=lambda kv: kv[1])]
        return "\n".join(lines), kvalues


class BatchedBackend:
    """Netlist compiled to limb-vectorised numpy code over N lanes."""

    def __init__(self, netlist: Netlist):
        global _cache_hits, _cache_misses
        _require_numpy()
        self.netlist = netlist
        self.state_slot: Dict[Signal, Tuple[int, int]] = {}
        self.comb_slot: Dict[Signal, Tuple[int, int]] = {}
        self.mem_slot: Dict[Mem, Tuple[int, int]] = {}

        row = 0
        for sig in list(netlist.inputs) + list(netlist.regs):
            L = _nlimbs(sig.width)
            self.state_slot[sig] = (row, L)
            row += L
        self.n_state_rows = row
        row = 0
        for sig in netlist.comb:
            L = _nlimbs(sig.width)
            self.comb_slot[sig] = (row, L)
            row += L
        self.n_env_rows = row
        row = 0
        for mem in netlist.mems:
            L = _nlimbs(mem.width)
            self.mem_slot[mem] = (row, L)
            row += L

        fp = netlist.fingerprint()
        cached = _BATCH_CACHE.get(fp)
        if cached is not None:
            _cache_hits += 1
            _BATCH_CACHE.move_to_end(fp)
            self.source, self._eval_comb, self._step, self.kvalues = cached
            return
        _cache_misses += 1
        self.source, self.kvalues = _Emitter(self).generate()
        namespace = _make_namespace()
        exec(compile(self.source, f"<batched:{netlist.root.path}>", "exec"),
             namespace)
        self._eval_comb = namespace["eval_comb"]
        self._step = namespace["step"]
        _BATCH_CACHE[fp] = (self.source, self._eval_comb, self._step,
                            self.kvalues)
        while len(_BATCH_CACHE) > _CACHE_CAPACITY:
            _BATCH_CACHE.popitem(last=False)

    # -- backend protocol (see repro.hdl.sim.engine) -------------------------
    def new_state(self, lanes: int) -> tuple:
        st = np.zeros((self.n_state_rows, lanes), dtype=np.uint64)
        for reg in self.netlist.regs:
            if reg.init:
                row0, L = self.state_slot[reg]
                for j in range(L):
                    st[row0 + j] = (reg.init >> (64 * j)) & _M64
        mems = []
        for mem in self.netlist.mems:
            for j in range(_nlimbs(mem.width)):
                col = np.fromiter(
                    ((v >> (64 * j)) & _M64 for v in mem.init),
                    dtype=np.uint64, count=mem.depth,
                )
                mems.append(np.repeat(col[:, None], lanes, axis=1))
        env = np.zeros((self.n_env_rows, lanes), dtype=np.uint64)
        # the generated code also takes the lane index vector and the
        # constants it references, pre-broadcast to the lane count
        consts = [np.full(lanes, v, dtype=np.uint64) for v in self.kvalues]
        return (st, mems, env, np.arange(lanes, dtype=np.intp), consts)

    def eval_comb(self, state, mems, env, ln, consts) -> None:
        self._eval_comb(state, mems, env, ln, consts)

    def step(self, state, mems, env, ln, consts) -> None:
        self._step(state, mems, env, ln, consts)

    def row_span(self, sig: Signal) -> Tuple[int, int]:
        """``(first row, limb count)`` of a signal in :meth:`rows`."""
        slot = self.state_slot.get(sig)
        if slot is not None:
            return slot
        row0, L = self.comb_slot[sig]
        return self.n_state_rows + row0, L

    def rows(self, args):
        """State rows stacked over env rows: one ``(rows, lanes)`` copy."""
        return np.concatenate([args[0], args[2]], axis=0)

    def read(self, args, sig: Signal, lane: Optional[int]):
        slot = self.state_slot.get(sig)
        if slot is None:
            arr, (row0, L) = args[2], self.comb_slot[sig]
        else:
            arr, (row0, L) = args[0], slot
        if lane is None:
            out = arr[row0].tolist()
            for j in range(1, L):
                out = [v | (w << (64 * j))
                       for v, w in zip(out, arr[row0 + j].tolist())]
            return out
        value = 0
        for j in range(L):
            value |= int(arr[row0 + j, lane]) << (64 * j)
        return value

    def write(self, args, sig: Signal, value: int,
              lane: Optional[int]) -> None:
        row0, L = self.state_slot[sig]
        col = slice(None) if lane is None else lane
        for j in range(L):
            args[0][row0 + j, col] = (value >> (64 * j)) & _M64

    def read_mem(self, args, mem: Mem, addr: int, lane: int) -> int:
        row0, L = self.mem_slot[mem]
        value = 0
        for j in range(L):
            value |= int(args[1][row0 + j][addr, lane]) << (64 * j)
        return value

    def write_mem(self, args, mem: Mem, addr: int, value: int,
                  lane: Optional[int]) -> None:
        row0, L = self.mem_slot[mem]
        col = slice(None) if lane is None else lane
        for j in range(L):
            args[1][row0 + j][addr, col] = (value >> (64 * j)) & _M64

    def mem_rows(self, args, mem: Mem) -> List[object]:
        """A copy of each limb array of one memory, ``(depth, lanes)``."""
        row0, L = self.mem_slot[mem]
        return [args[1][row0 + j].copy() for j in range(L)]

    def values(self, args, lane: int) -> List[int]:
        col = args[0][:, lane].tolist() + args[2][:, lane].tolist()
        nl = self.netlist
        out: List[int] = []
        for sig in list(nl.inputs) + list(nl.regs) + list(nl.comb):
            row0, L = self.row_span(sig)
            value = col[row0]
            for j in range(1, L):
                value |= col[row0 + j] << (64 * j)
            out.append(value)
        return out


class BatchSimulator(Simulator):
    """:class:`~repro.hdl.sim.engine.Simulator` on the batched backend,
    whose ``poke`` takes the lane before the value."""

    def __init__(self, design: Union[Module, Netlist], lanes: int = 1,
                 **options):
        super().__init__(design, backend="batched", lanes=lanes, **options)

    def poke(self, sig: SignalLike, lane: int, value: int) -> None:
        """Drive a free input on one lane."""
        self._poke(sig, value, lane)
