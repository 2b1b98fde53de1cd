"""Synthesized shadow-tag tracking: labels as ordinary netlist logic.

The paper's central claim is that information-flow enforcement can be
*synthesized hardware*, not an interpreter bolted onto the side.  The
runtime :class:`~repro.ifc.tracker.LabelTracker` proves policies on
concrete runs, but it steps in Python outside the simulator's fast path
— three orders of magnitude below the batched backend's lane rate.

:func:`synthesize_tags` closes that gap the same way the fault injector
does (:func:`repro.faults.plan.instrument`): as a **netlist-to-netlist
transformation**.  Every signal ``s`` is widened with two shadow nets

* ``s__conf``  — one bit per principal: the confidentiality set the
  value may draw from (bit set ⇒ may contain that principal's secrets);
* ``s__integ`` — one bit per principal, in **distrust** encoding: bit
  set ⇒ that principal does *not* vouch for the value.

With distrust bits, both planes join by bitwise OR and the bottom label
``(public, trusted)`` encodes as all-zeros — exactly what a freshly
reset input or register holds, so untouched state starts at ⊥ just like
the interpreted tracker's default.  GLIFT-style propagation logic is
emitted per node kind, mirroring the tracker's value-aware precision
rules (a zero AND-operand absorbs, a mux passes only the taken branch's
tag, a full-ones OR-operand absorbs), so the transformed netlist and the
interpreted oracle agree cycle for cycle.  Declassify/endorse markers
become dedicated *downgrade cells* that compute the nonmalleable result
label in tag bits and raise a blocked-downgrade flag when Eq. (1) fails.

Declared sinks (labelled wires, registers, and memory writes) get a
1-bit violation net plus sticky/first-cycle/count registers, so a whole
campaign can run at full speed and be audited afterwards through
:class:`TagView` — which also forwards violations to the ``repro.obs``
security-event stream under ``source="synth"``.

All three simulation backends consume the same transformed netlist, so
tag semantics are identical across the interpreter, the compiled
backend, and the numpy batched backend *by construction* — each batched
lane carries its own independent tag vectors.  The interpreted
:class:`LabelTracker` stays untouched as the differential-test oracle
(``tests/ifc/test_synth_differential.py``).

Known, documented divergence from the oracle: downgrade cells are
*eager* — a marker sitting on the untaken branch of a mux is still
checked every cycle by the synthesized logic, while the lazily
evaluating tracker skips it.  Value tags are unaffected (the mux
forwards only the taken branch's tag either way); only blocked-downgrade
*events* can be a superset of the tracker's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..hdl.memory import Mem
from ..hdl.netlist import Netlist, MemWrite
from ..hdl.nodes import (
    BinaryOp,
    Const,
    MemRead,
    Mux,
    Node,
    UnaryOp,
)
from ..hdl.signal import Signal, SignalKind
from ..hdl.types import mask_for
from ..ifc.dependent import CellTagLabel, DependentLabel
from ..ifc.label import Label, bottom
from ..ifc.lattice import SecurityLattice

#: width of the first-violation-cycle / occurrence counters
_CYCLE_W = 32


# -- tag encoding ---------------------------------------------------------------

def encode_tag(lattice: SecurityLattice, label: Label) -> Tuple[int, int]:
    """Encode a label as ``(conf bits, distrust bits)`` shadow-net values.

    Confidentiality is the usual one-bit-per-principal set; integrity is
    stored *inverted* (distrust = complement of the vouch set) so that
    both planes join by OR and all-zero means ``(public, trusted)``.
    """
    n = len(lattice.principals)
    mask = (1 << n) - 1
    return (lattice.encode_conf(label.conf),
            mask ^ lattice.encode_integ(label.integ))


def decode_tag(lattice: SecurityLattice, conf_bits: int,
               distrust_bits: int) -> Label:
    """Inverse of :func:`encode_tag`."""
    n = len(lattice.principals)
    mask = (1 << n) - 1
    return Label(lattice,
                 lattice.decode_conf(conf_bits & mask),
                 lattice.decode_integ(mask ^ (distrust_bits & mask)))


# -- transform result -----------------------------------------------------------

class TagSite:
    """One synthesized check point: a declared sink or a downgrade cell.

    ``kind`` is ``"flow"`` (declared wire / register / memory write) or
    ``"downgrade"`` (a declassify/endorse marker's nonmalleability
    check).  ``now`` is the 1-bit combinational violation net for the
    current cycle; ``sticky``/``first_cycle``/``count`` are the audit
    registers derived from it.
    """

    __slots__ = ("path", "kind", "declared", "now", "sticky", "first_cycle",
                 "count")

    def __init__(self, path: str, kind: str, declared: str, now: Signal,
                 sticky: Signal, first_cycle: Signal, count: Signal):
        self.path = path
        self.kind = kind
        self.declared = declared
        self.now = now
        self.sticky = sticky
        self.first_cycle = first_cycle
        self.count = count

    def __repr__(self) -> str:
        return f"TagSite({self.kind}, {self.path})"


class TagPlan:
    """Everything :class:`TagView` needs to read the shadow state."""

    def __init__(self, lattice: SecurityLattice, precise: bool):
        self.lattice = lattice
        self.precise = precise
        n = len(lattice.principals)
        self.nbits = n
        #: original signal -> shadow conf / distrust nets
        self.conf: Dict[Signal, Signal] = {}
        self.integ: Dict[Signal, Signal] = {}
        #: inputs whose tags are free (poke-able); excludes dependent-labelled
        self.tag_inputs: Dict[Signal, Tuple[Signal, Signal]] = {}
        #: original memory -> shadow conf / distrust memories
        self.mem_conf: Dict[Mem, Mem] = {}
        self.mem_integ: Dict[Mem, Mem] = {}
        self.sites: List[TagSite] = []
        self.cycle_reg: Optional[Signal] = None
        self.alarm: Optional[Signal] = None

    def stats(self) -> Dict[str, int]:
        """Tag-net counts for the ``repro ifc synth`` report."""
        flow = sum(1 for s in self.sites if s.kind == "flow")
        return {
            "principals": self.nbits,
            "tag_nets": 2 * len(self.conf),
            "tag_net_bits": 2 * self.nbits * len(self.conf),
            "free_tag_inputs": 2 * len(self.tag_inputs),
            "shadow_mems": 2 * len(self.mem_conf),
            "flow_sites": flow,
            "downgrade_sites": len(self.sites) - flow,
        }

    # -- coverage-observatory enumeration --------------------------------------------
    def shadow_nets(self) -> List[Tuple[str, str, Signal]]:
        """Every synthesized shadow net as ``(plane, original_path,
        shadow_signal)``, sorted by original path.

        ``plane`` is ``"conf"`` or ``"integ"``; the shadow signal is the
        net whose per-principal bits the coverage observatory watches
        for taint activity.
        """
        out: List[Tuple[str, str, Signal]] = []
        for plane, table in (("conf", self.conf), ("integ", self.integ)):
            for orig in sorted(table, key=lambda s: s.path):
                out.append((plane, orig.path, table[orig]))
        return out

    def shadow_net_paths(self) -> Dict[str, List[str]]:
        """Shadow net hierarchical paths grouped by plane."""
        paths: Dict[str, List[str]] = {"conf": [], "integ": []}
        for plane, _orig, shadow in self.shadow_nets():
            paths[plane].append(shadow.path)
        return paths

    def site_census(self) -> List[Dict[str, str]]:
        """Static enumeration of every synthesized enforcement site.

        One entry per :class:`TagSite` with the nets the coverage
        observatory must see armed (``now``) or latched (``sticky``)
        before the site counts as exercised.
        """
        return [{
            "path": s.path,
            "kind": s.kind,
            "declared": s.declared,
            "now": s.now.path,
            "sticky": s.sticky.path,
        } for s in self.sites]


def _declared_static_or_bottom(sig: Signal, lattice: SecurityLattice) -> Label:
    if isinstance(sig.label, Label):
        return sig.label
    return bottom(lattice)


def _zero(n: int) -> Const:
    return Const(0, n)


# -- constant-folding constructors ------------------------------------------------
# Most tag joins have at least one constant-⊥ operand (literals, reset
# state, statically labelled sources), so folding here keeps the shadow
# plane proportional to the *tainted* logic rather than the whole
# design.  Every fold is an exact bitwise identity — the transform stays
# cycle-accurate against the interpreted oracle.

def _cv(x: Node) -> Optional[int]:
    """The constant value of ``x``, or None when dynamic."""
    return x.value if isinstance(x, Const) else None


def _or2(a: Node, b: Node, n: int) -> Node:
    va, vb = _cv(a), _cv(b)
    if va == 0:
        return b
    if vb == 0:
        return a
    if va is not None and vb is not None:
        return Const(va | vb, n)
    return BinaryOp("or", a, b)


def _and2(a: Node, b: Node, n: int) -> Node:
    va, vb = _cv(a), _cv(b)
    if va == 0 or vb == 0:
        return _zero(n)
    if va is not None and vb is not None:
        return Const(va & vb, n)
    if va == mask_for(n):
        return b
    if vb == mask_for(n):
        return a
    return BinaryOp("and", a, b)


def _not(x: Node, n: int) -> Node:
    v = _cv(x)
    if v is not None:
        return Const(v ^ mask_for(n), n)
    return UnaryOp("not", x)


def _red_or(x: Node) -> Node:
    v = _cv(x)
    if v is not None:
        return Const(1 if v else 0, 1)
    return x.red_or()


def _mux2(sel: Node, t: Node, f: Node) -> Node:
    if t is f:
        return t
    vt, vf = _cv(t), _cv(f)
    if vt is not None and vt == vf:
        return t
    vs = _cv(sel)
    if vs is not None:
        return t if vs else f
    return Mux(sel, t, f)


def _or_all(parts: List[Node], n: int) -> Node:
    acc: Node = _zero(n)
    for p in parts:
        acc = _or2(acc, p, n)
    return acc


class _Synth:
    """Builder for one :func:`synthesize_tags` run."""

    def __init__(self, netlist: Netlist, lattice: SecurityLattice,
                 check_downgrades: bool, precise: bool,
                 track_violations: bool, audit: str = "full"):
        self.nl = netlist
        self.lat = lattice
        self.n = len(lattice.principals)
        self.check_downgrades = check_downgrades
        self.precise = precise
        self.track_violations = track_violations
        self.audit = audit
        self.plan = TagPlan(lattice, precise)
        self.out = out = Netlist(netlist.root)
        out.inputs = list(netlist.inputs)
        out.regs = list(netlist.regs)
        out.comb = list(netlist.comb)
        out.drivers = dict(netlist.drivers)
        out.reg_next = dict(netlist.reg_next)
        out.mems = list(netlist.mems)
        out.mem_writes = {m: list(ws) for m, ws in netlist.mem_writes.items()}
        out.signals = list(netlist.signals)
        #: id(node) -> (conf expr, distrust expr); nodes are a shared DAG so
        #: the shadow logic stays proportional to the original
        self._memo: Dict[int, Tuple[Node, Node]] = {}
        #: downgrade nodes already given a check site (one site per marker)
        self._downgrade_sites: Dict[int, Node] = {}
        #: raw violation sites: (path, kind, declared repr, 1-bit expr)
        self._viol: List[Tuple[str, str, str, Node]] = []

    # -- shadow net creation -----------------------------------------------------
    def _shadow_pair(self, sig: Signal, kind: SignalKind,
                     init: Label = None) -> Tuple[Signal, Signal]:
        ci, di = (0, 0) if init is None else encode_tag(self.lat, init)
        conf = Signal(f"{sig.path}__conf", self.n, kind, owner=None, init=ci)
        integ = Signal(f"{sig.path}__integ", self.n, kind, owner=None, init=di)
        self.plan.conf[sig] = conf
        self.plan.integ[sig] = integ
        return conf, integ

    def _make_shadow_signals(self) -> None:
        """Create every shadow net up front so tag expressions can
        reference each other before their drivers exist."""
        for sig in self.nl.inputs:
            kind = (SignalKind.WIRE
                    if isinstance(sig.label, DependentLabel)
                    else SignalKind.INPUT)
            conf, integ = self._shadow_pair(sig, kind)
            if kind is SignalKind.INPUT:
                self.plan.tag_inputs[sig] = (conf, integ)
        for reg in self.nl.regs:
            self._shadow_pair(
                reg, SignalKind.REG,
                init=_declared_static_or_bottom(reg, self.lat))
        for sig in self.nl.comb:
            self._shadow_pair(sig, SignalKind.WIRE)
        for mem in self.nl.mems:
            init_labels = None
            if mem.cell_labels is not None:
                init_labels = list(mem.cell_labels)
            elif isinstance(mem.label, Label):
                init_labels = [mem.label] * mem.depth
            if init_labels is None:
                ci = di = [0] * mem.depth
            else:
                enc = [encode_tag(self.lat, lb) for lb in init_labels]
                ci = [c for c, _ in enc]
                di = [d for _, d in enc]
            mc = Mem(f"{mem.path}__conf", mem.depth, self.n, owner=None,
                     init=ci)
            mi = Mem(f"{mem.path}__integ", mem.depth, self.n, owner=None,
                     init=di)
            self.plan.mem_conf[mem] = mc
            self.plan.mem_integ[mem] = mi

    # -- declared labels as tag expressions ----------------------------------------
    def _is_decode_label(self, dl: DependentLabel) -> bool:
        """True when ``dl`` is the full-tag-space hardware decode (the
        :func:`repro.ifc.tag_label` shape), which lowers to two slices of
        the selector instead of a 2^(2n)-entry mux chain."""
        full = 1 << (2 * self.n)
        if len(dl.domain) != full or dl.selector.width < 2 * self.n:
            return False
        try:
            return all(dl.resolve(v) == Label.decode(self.lat, v)
                       for v in dl.domain)
        except Exception:
            return False

    def _decode_expr(self, tag_expr: Node) -> Tuple[Node, Node]:
        """(conf, distrust) of an encoded ``Label.encode()`` tag value."""
        n = self.n
        conf = tag_expr.bits(2 * n - 1, n)
        dist = UnaryOp("not", tag_expr.bits(n - 1, 0))
        return conf, dist

    def _labelish_tags(self, labelish, sink: bool,
                       selector_value: Optional[Node] = None
                       ) -> Tuple[Node, Node]:
        """Lower a declared ``Label`` / ``DependentLabel`` to tag nets.

        ``selector_value`` substitutes the dependent selector (used for
        memory sinks, where a register selector must be read at its
        *next* value because the write lands next cycle).  Outside the
        declared domain the mux falls back to the domain join at source
        positions and the domain meet at sinks — both conservative; the
        interpreted oracle raises instead, so differential tests stay
        in-domain.
        """
        if isinstance(labelish, Label):
            c, d = encode_tag(self.lat, labelish)
            return Const(c, self.n), Const(d, self.n)
        assert isinstance(labelish, DependentLabel)
        sel = labelish.selector if selector_value is None else selector_value
        if self._is_decode_label(labelish):
            return self._decode_expr(sel)
        default = (labelish.lower_bound() if sink else labelish.upper_bound())
        dc, dd = encode_tag(self.lat, default)
        conf: Node = Const(dc, self.n)
        dist: Node = Const(dd, self.n)
        for v in reversed(labelish.domain):
            if v > mask_for(sel.width):
                continue  # unreachable selector value
            lbl = labelish.resolve(v)
            c, d = encode_tag(self.lat, lbl)
            hit = BinaryOp("eq", sel, Const(v, sel.width))
            conf = Mux(hit, Const(c, self.n), conf)
            dist = Mux(hit, Const(d, self.n), dist)
        return conf, dist

    # -- tag propagation per node kind ----------------------------------------------
    def tags(self, node: Node) -> Tuple[Node, Node]:
        nid = id(node)
        hit = self._memo.get(nid)
        if hit is not None:
            return hit
        result = self._tags_uncached(node)
        self._memo[nid] = result
        return result

    def _join2(self, a: Tuple[Node, Node],
               b: Tuple[Node, Node]) -> Tuple[Node, Node]:
        n = self.n
        return (_or2(a[0], b[0], n), _or2(a[1], b[1], n))

    def _tags_uncached(self, node: Node) -> Tuple[Node, Node]:
        kind = node.kind
        n = self.n
        if kind == "const":
            return _zero(n), _zero(n)
        if kind == "signal":
            return self.plan.conf[node], self.plan.integ[node]
        if kind == "unary":
            return self.tags(node.a)
        if kind == "slice":
            return self.tags(node.a)
        if kind == "binary":
            ta = self.tags(node.a)
            tb = self.tags(node.b)
            joined = self._join2(ta, tb)
            if not self.precise:
                return joined
            if node.op == "and":
                # a zero operand fully determines the result: its tag alone
                az = node.a.is_zero()
                bz = node.b.is_zero()
                return tuple(
                    _mux2(az, ta[i], _mux2(bz, tb[i], joined[i]))
                    for i in (0, 1))
            if node.op == "or":
                arms = []
                if node.a.width == node.width:
                    arms.append((node.a.red_and(), ta))
                if node.b.width == node.width:
                    arms.append((node.b.red_and(), tb))
                conf, dist = joined
                for full, t in reversed(arms):
                    conf = _mux2(full, t[0], conf)
                    dist = _mux2(full, t[1], dist)
                return conf, dist
            return joined
        if kind == "mux":
            ts = self.tags(node.sel)
            tt = self.tags(node.if_true)
            tf = self.tags(node.if_false)
            if not self.precise:
                return self._join2(ts, self._join2(tt, tf))
            # selector joined with the *taken* branch only
            return tuple(
                _mux2(node.sel,
                      _or2(ts[i], tt[i], n),
                      _or2(ts[i], tf[i], n))
                for i in (0, 1))
        if kind == "concat":
            parts = [self.tags(p) for p in node.parts]
            return (_or_all([p[0] for p in parts], n),
                    _or_all([p[1] for p in parts], n))
        if kind == "memread":
            ta = self.tags(node.addr)
            # out-of-range shadow reads return 0 == bottom, matching the
            # tracker's ``al.join(⊥)`` on out-of-range data reads
            rc = MemRead(self.plan.mem_conf[node.mem], node.addr)
            rd = MemRead(self.plan.mem_integ[node.mem], node.addr)
            return _or2(ta[0], rc, n), _or2(ta[1], rd, n)
        if kind == "downgrade":
            return self._downgrade_tags(node)
        raise AssertionError(f"unknown node kind {kind!r}")

    def _downgrade_tags(self, node) -> Tuple[Node, Node]:
        """Downgrade cell: nonmalleable result tags + blocked check."""
        dc, dd = self.tags(node.a)
        tc, td = self._labelish_tags(node.target, sink=False)
        ac, ad = self._labelish_tags(node.authority, sink=False)
        n = self.n
        if node.kind_ == "declassify":
            # result: target confidentiality, integrity joined
            out = (tc, _or2(dd, td, n))
            # Eq.(1): C(data) ⊆ C(target) ∪ r(I(authority)); the authority's
            # vouch set is the complement of its distrust bits
            bound = _or2(tc, _not(ad, n), n)
            blocked = _red_or(_and2(dc, _not(bound, n), n))
        else:  # endorse
            out = (_or2(dc, tc, n), td)
            # Eq.(1) dual: I(data) ⊑I I(target) ⊔I r(C(authority)); the bound
            # vouch set is target_vouch ∩ authority_conf, and the data fails
            # when it distrusts any principal in that bound
            bound = _and2(_not(td, n), ac, n)
            blocked = _red_or(_and2(bound, dd, n))
        if self.check_downgrades and id(node) not in self._downgrade_sites:
            self._downgrade_sites[id(node)] = blocked
            target_repr = repr(node.target)
            self._viol.append(
                (f"{node.kind_} marker", "downgrade", target_repr, blocked))
        return out

    # -- flow-check sites ------------------------------------------------------------
    def _flow_fail(self, computed: Tuple[Node, Node],
                   declared: Tuple[Node, Node]) -> Node:
        n = self.n
        cfail = _and2(computed[0], _not(declared[0], n), n)
        dfail = _and2(computed[1], _not(declared[1], n), n)
        # both planes are n bits wide: one reduction over the OR of the
        # two excess masks, not one reduction per plane
        return _red_or(_or2(cfail, dfail, n))

    def _declared_sink_site(self, sig: Signal,
                            computed: Tuple[Node, Node]) -> None:
        if not isinstance(sig.label, (Label, DependentLabel)):
            return
        declared = self._labelish_tags(sig.label, sink=True)
        self._viol.append(
            (sig.path, "flow", repr(sig.label),
             self._flow_fail(computed, declared)))

    def _mem_write_site(self, mem: Mem, w: MemWrite,
                        computed: Tuple[Node, Node]) -> None:
        """Declared-label check for one memory write (tracker parity:
        checked only when the write fires and the address is in range)."""
        declared = self._declared_cell_tags(mem, w)
        if declared is None:
            return
        fail = self._flow_fail(computed, declared)
        guards: List[Node] = []
        if w.cond is not None:
            guards.append(w.cond)
        if mem.depth < (1 << w.addr.width):
            guards.append(BinaryOp("lt", w.addr,
                                   Const(mem.depth, w.addr.width + 1)))
        for g in guards:
            fail = _and2(g if g.width == 1 else _red_or(g), fail, 1)
        self._viol.append(
            (f"{mem.path}[write]", "flow", repr(mem.label), fail))

    def _declared_cell_tags(self, mem: Mem,
                            w: MemWrite) -> Optional[Tuple[Node, Node]]:
        if isinstance(mem.label, Label):
            return self._labelish_tags(mem.label, sink=True)
        if isinstance(mem.label, DependentLabel):
            sel = mem.label.selector
            # the write lands next cycle; a register selector updated this
            # cycle must be read at its next value (tracker parity)
            sel_value = self.nl.reg_next.get(sel, None)
            return self._labelish_tags(mem.label, sink=True,
                                       selector_value=sel_value)
        if isinstance(mem.label, CellTagLabel):
            tag_expr = (w.tag if w.tag is not None
                        else MemRead(mem.label.tag_mem, w.addr))
            return self._decode_expr(tag_expr)
        if mem.cell_labels is not None:
            dc: Node = _zero(self.n)
            dd: Node = _zero(self.n)
            for addr in reversed(range(mem.depth)):
                c, d = encode_tag(self.lat, mem.cell_labels[addr])
                hit = BinaryOp("eq", w.addr, Const(addr, w.addr.width))
                dc = Mux(hit, Const(c, self.n), dc)
                dd = Mux(hit, Const(d, self.n), dd)
            return dc, dd
        return None

    # -- assembly ---------------------------------------------------------------------
    def run(self) -> Tuple[Netlist, TagPlan]:
        nl, out, plan = self.nl, self.out, self.plan
        self._make_shadow_signals()

        # dependent-labelled inputs: tags derived combinationally from the
        # live selector, exactly like the tracker's _source_label
        dep_input_nets: List[Signal] = []
        for sig in nl.inputs:
            if isinstance(sig.label, DependentLabel):
                conf, integ = plan.conf[sig], plan.integ[sig]
                ce, de = self._labelish_tags(sig.label, sink=False)
                out.drivers[conf] = ce
                out.drivers[integ] = de
                dep_input_nets.extend((conf, integ))
            else:
                conf, integ = plan.conf[sig], plan.integ[sig]
                out.inputs.extend((conf, integ))

        # combinational shadow drivers, in the original topological order:
        # the shadow of s depends only on shadows of s's dependencies
        shadow_comb: List[Signal] = []
        for sig in nl.comb:
            conf, integ = plan.conf[sig], plan.integ[sig]
            ce, de = self.tags(nl.drivers[sig])
            out.drivers[conf] = ce
            out.drivers[integ] = de
            shadow_comb.extend((conf, integ))

        # shadow registers latch the tag of the next-value expression
        for reg in nl.regs:
            conf, integ = plan.conf[reg], plan.integ[reg]
            out.regs.extend((conf, integ))
            out.signals.extend((conf, integ))
            nxt = nl.reg_next.get(reg)
            if nxt is not None:
                ce, de = self.tags(nxt)
                out.reg_next[conf] = ce
                out.reg_next[integ] = de

        # shadow memories mirror every write with the joined tag of the
        # write's condition, address, and data (tracker: cl ⊔ al ⊔ dl);
        # sharing cond/addr nodes inherits ordering and range semantics
        for mem in nl.mems:
            mc, mi = plan.mem_conf[mem], plan.mem_integ[mem]
            out.mems.extend((mc, mi))
            cw: List[MemWrite] = []
            iw: List[MemWrite] = []
            for w in nl.mem_writes.get(mem, []):
                parts = [self.tags(w.addr), self.tags(w.data)]
                if w.cond is not None:
                    parts.append(self.tags(w.cond))
                ce = _or_all([p[0] for p in parts], self.n)
                de = _or_all([p[1] for p in parts], self.n)
                cw.append(MemWrite(w.cond, w.addr, ce))
                iw.append(MemWrite(w.cond, w.addr, de))
                if self.track_violations:
                    self._mem_write_site(mem, w, (ce, de))
            if cw:
                out.mem_writes[mc] = cw
                out.mem_writes[mi] = iw

        # declared comb and register sinks (tracker checks both per cycle:
        # comb against its freshly computed tag, a register against the
        # tag it currently holds)
        if self.track_violations:
            for sig in nl.comb:
                self._declared_sink_site(
                    sig, (plan.conf[sig], plan.integ[sig]))
            for reg in nl.regs:
                self._declared_sink_site(
                    reg, (plan.conf[reg], plan.integ[reg]))

        # audit logic: cycle counter, then per-site now/sticky/first/count.
        # audit="sticky" keeps the per-site now wire and sticky bit but
        # drops the first-cycle and occurrence counters — about 60 % of
        # the whole tag plane's per-cycle cost on the batched backend is
        # these two registers' update networks, and high-throughput
        # campaigns only need "which sites ever fired"
        full_audit = self.audit == "full"
        viol_nets: List[Signal] = []
        if self.track_violations and self._viol:
            cyc = None
            if full_audit:
                cyc = Signal("__tag.cycle", _CYCLE_W, SignalKind.REG,
                             owner=None)
                out.regs.append(cyc)
                out.signals.append(cyc)
                out.reg_next[cyc] = BinaryOp("add", cyc, Const(1, _CYCLE_W))
                plan.cycle_reg = cyc
            stickies: List[Signal] = []
            for i, (path, kind, declared, expr) in enumerate(self._viol):
                now = Signal(f"__tag.viol{i}", 1, SignalKind.WIRE, owner=None)
                sticky = Signal(f"__tag.viol{i}.sticky", 1, SignalKind.REG,
                                owner=None)
                out.drivers[now] = expr
                # a site whose fail expression folded to constant 0 can
                # never fire; keep its registers (so the TagView API and
                # stats are fold-independent) but skip the update networks
                dead = _cv(expr) == 0
                if not dead:
                    out.reg_next[sticky] = BinaryOp("or", sticky, now)
                out.regs.append(sticky)
                out.signals.append(sticky)
                first = count = None
                if full_audit:
                    first = Signal(f"__tag.viol{i}.first", _CYCLE_W,
                                   SignalKind.REG, owner=None)
                    count = Signal(f"__tag.viol{i}.count", _CYCLE_W,
                                   SignalKind.REG, owner=None)
                    if not dead:
                        out.reg_next[first] = Mux(
                            BinaryOp("and", now, UnaryOp("not", sticky)), cyc,
                            first)
                        out.reg_next[count] = Mux(
                            now, BinaryOp("add", count, Const(1, _CYCLE_W)),
                            count)
                    out.regs.extend((first, count))
                    out.signals.extend((first, count))
                viol_nets.append(now)
                stickies.append(sticky)
                plan.sites.append(
                    TagSite(path, kind, declared, now, sticky, first, count))
            alarm = Signal("__tag.alarm", 1, SignalKind.WIRE, owner=None)
            out.drivers[alarm] = _or_all(list(stickies), 1)
            plan.alarm = alarm
            viol_nets.append(alarm)

        # evaluation order: originals, dependent-input tag nets, shadow
        # nets (original topo order), then the violation nets.  Each block
        # only reads earlier blocks, so this order is already topological;
        # keeping the originals in front preserves the values() layout.
        out.comb = (list(nl.comb) + dep_input_nets + shadow_comb + viol_nets)
        out.signals.extend(dep_input_nets + shadow_comb + viol_nets)
        # the free tag inputs were appended to out.inputs above; register
        # them as signals too so signal_by_path resolves them
        for sig, (conf, integ) in plan.tag_inputs.items():
            out.signals.extend((conf, integ))
        return out, plan


def synthesize_tags(netlist: Netlist, lattice: SecurityLattice,
                    check_downgrades: bool = True,
                    precise: bool = True,
                    track_violations: bool = True,
                    audit: str = "full"
                    ) -> Tuple[Netlist, TagPlan]:
    """Widen ``netlist`` with shadow tag nets and propagation logic.

    Returns a transformed copy (expression nodes are shared; only the
    signal/driver/memory tables are rebuilt, following the fault
    injector's pattern) plus the :class:`TagPlan` describing the shadow
    state.  ``precise=True`` matches the interpreted tracker's
    value-aware rules; ``precise=False`` emits the plain monotone join
    at every cell (output tag = join of input tags, no value
    sensitivity), which is the form the property tests quantify over.

    ``audit="full"`` (default) gives every violation site a sticky bit,
    a first-fire cycle register, and an occurrence counter;
    ``audit="sticky"`` keeps only the sticky bit — the fast-campaign
    configuration, roughly 2.4x cheaper per cycle on the batched backend
    (:class:`SynthViolation` then reports ``first_cycle``/``count`` as
    ``None``).
    """
    if audit not in ("full", "sticky"):
        raise ValueError(f"audit must be 'full' or 'sticky', got {audit!r}")
    return _Synth(netlist, lattice, check_downgrades, precise,
                  track_violations, audit).run()


# -- runtime view ---------------------------------------------------------------

class SynthViolation:
    """One audited violation site that fired during a run."""

    __slots__ = ("site", "first_cycle", "count", "lane")

    def __init__(self, site: TagSite, first_cycle: int, count: int,
                 lane: int = 0):
        self.site = site
        self.first_cycle = first_cycle
        self.count = count
        self.lane = lane

    def as_dict(self) -> dict:
        return {"sink": self.site.path, "kind": self.site.kind,
                "declared": self.site.declared, "first_cycle": self.first_cycle,
                "count": self.count, "lane": self.lane}

    def __repr__(self) -> str:
        return (f"cycle {self.first_cycle}: {self.site.kind} violation at "
                f"{self.site.path} (x{self.count}, lane {self.lane})")


class TagView:
    """Read/drive the synthesized shadow state of one simulator.

    Wraps a :class:`~repro.hdl.sim.engine.Simulator` on any backend
    (pass ``lane=`` to address one lane of a batched one).  Mirrors the
    tracker's query API: ``label_of`` / ``mem_label_of`` /
    ``set_source_label`` / ``violations`` / ``ok``.
    """

    def __init__(self, sim, plan: TagPlan):
        self.sim = sim
        self.plan = plan
        self.lattice = plan.lattice
        #: testbench-set labels, reapplied after reset (static labels only;
        #: per-cycle callables belong to the interpreted tracker)
        self.source_labels: Dict[Signal, Label] = {}
        self.reseed()

    # -- seeding -----------------------------------------------------------------
    def reseed(self) -> None:
        """Drive every free tag input to its declared (or testbench-set)
        label.  Called at construction and again after ``reset()`` —
        fresh state zeroes the tag inputs, which already means ⊥; only
        inputs declared above ⊥ need re-poking."""
        for sig, (conf, integ) in self.plan.tag_inputs.items():
            label = self.source_labels.get(sig)
            if label is None and isinstance(sig.label, Label):
                label = sig.label
            if label is None:
                continue
            c, d = encode_tag(self.lattice, label)
            self.sim._poke(conf, c, None)
            self.sim._poke(integ, d, None)

    def set_source_label(self, sig, label: Label,
                         lane: Optional[int] = None) -> None:
        """Attach a label to a free input (all lanes unless ``lane``).

        Unlike the interpreted tracker this takes a static
        :class:`Label` only — a per-cycle label is just a per-cycle poke
        of the ``<path>__conf`` / ``<path>__integ`` nets.
        """
        sig = self.sim._resolve(sig)
        pair = self.plan.tag_inputs.get(sig)
        if pair is None:
            raise KeyError(
                f"{sig.path} has no free tag inputs (not an input, or its "
                f"declared label is dependent and therefore hardware-derived)")
        c, d = encode_tag(self.lattice, label)
        self.sim._poke(pair[0], c, lane)
        self.sim._poke(pair[1], d, lane)
        if lane is None:
            self.source_labels[sig] = label

    # -- queries -----------------------------------------------------------------
    def label_of(self, sig, lane: int = 0) -> Label:
        """Current label of any signal, decoded from its shadow nets."""
        sig = self.sim._resolve(sig)
        conf = self.plan.conf.get(sig)
        if conf is None:
            raise KeyError(f"no shadow tag nets for {sig.path}")
        return decode_tag(self.lattice,
                          self.sim.peek(conf, lane),
                          self.sim.peek(self.plan.integ[sig], lane))

    def mem_label_of(self, mem, addr: int, lane: int = 0) -> Label:
        mem = self.sim._resolve_mem(mem)
        mc = self.plan.mem_conf.get(mem)
        if mc is None:
            raise KeyError(f"no shadow tag memories for {mem.path}")
        return decode_tag(self.lattice,
                          self.sim.peek_mem(mc, addr, lane),
                          self.sim.peek_mem(self.plan.mem_integ[mem], addr,
                                            lane))

    def any_violation(self, lane: int = 0) -> bool:
        if self.plan.alarm is None:
            return False
        return bool(self.sim.peek(self.plan.alarm, lane))

    def violations(self, lane: int = 0,
                   emit: bool = False) -> List[SynthViolation]:
        """Scan the sticky audit registers; optionally forward each hit
        to the ``repro.obs`` security stream (``source="synth"``)."""
        out: List[SynthViolation] = []
        for site in self.plan.sites:
            if not self.sim.peek(site.sticky, lane):
                continue
            out.append(SynthViolation(
                site,
                self.sim.peek(site.first_cycle, lane)
                if site.first_cycle is not None else None,
                self.sim.peek(site.count, lane)
                if site.count is not None else None,
                lane))
        if emit and out:
            from ..obs import telemetry as _telemetry

            obs = _telemetry()
            if obs is not None:
                for v in out:
                    obs.security.emit(
                        "label_violation", cycle=v.first_cycle,
                        source="synth", sink=v.site.path,
                        site_kind=v.site.kind, declared=v.site.declared,
                        count=v.count, lane=v.lane)
        return out

    def ok(self, lane: int = 0) -> bool:
        return not self.any_violation(lane)

    def summary(self, lane: int = 0) -> str:
        v = self.violations(lane)
        head = (f"synthesized tag tracking of {self.sim.netlist.root.path}: "
                f"{'CLEAN' if not v else 'VIOLATIONS'} "
                f"({len(v)} sites fired, lane {lane})")
        return "\n".join([head] + [f"  {x!r}" for x in v[:20]])
