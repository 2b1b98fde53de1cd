"""Verification coverage observatory: what did the campaigns exercise?

Every security verdict in this repo — IFC checks, leakage/power TVLA,
fault fail-safe, flow witnesses — is only as strong as what its
campaign actually touched.  This module measures that, on four planes:

* **structural** — per-bit 0→1 / 1→0 toggle coverage on every signal
  and register, plus written/read address coverage on memories;
* **taint** — which synthesized ``__conf`` / ``__integ`` shadow nets
  (:func:`repro.ifc.synth.synthesize_tags`) ever went nonzero, per
  principal;
* **enforcement** — which synthesized violation sites ever armed, and
  toggle coverage over the protected design's guard nets (stall meet,
  advance, declassifier, output buffer, per-stage tag registers);
* **campaign** — which of the fault injector's candidate sites the
  seeded scenario generators actually sampled
  (:func:`repro.faults.campaign.fault_site_census`), the outcome
  matrix of a real smoke campaign, and which attribution planes each
  leakage/power/flows/faults scenario registers against.

The :class:`CoverageCollector` rides the same watcher / bulk
``values()`` hooks as the profiler and
:class:`~repro.obs.power.PowerCollector` — nothing in the simulator
hot path changes when no collector is attached — and is uniform across
the interp/compiled/batched backends.  On batched it takes the
vectorized path over the limb arrays and OR-reduces across lanes; the
gate workload drives every lane identically, so the lane-merged map is
*bit-identical* to the single-lane backends' maps (the cross-backend
fingerprint check in the CI gate).

Coverage maps OR-merge across runs into an append-only JSONL ledger
(``COVERAGE_ledger.jsonl``), and ``python -m repro obs coverage``
computes holes — never-toggled nets, never-tainted shadow nets,
never-armed sites, never-injected fault sites — enforces per-plane
thresholds, and writes ``coverage_report.json`` / ``.md`` with the
ranked hole list.

Known approximation: memory *write* coverage is detected by content
diffing between consecutive cycles, so a write that stores the value
already present leaves no mark; memory *read* coverage only observes
ports whose address expression is a signal/constant/slice chain
(anything more complex is reported as an unobserved port, identically
on every backend).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the interp/compiled paths cover this
    _np = None

__all__ = [
    "CoverageMap",
    "CoverageCollector",
    "CoverageReport",
    "enforcement_net",
    "run_coverage_collection",
    "run_coverage_campaign",
    "append_ledger",
    "load_ledger",
    "THRESHOLDS",
    "cmd_obs_coverage",
]

#: per-plane gate thresholds (fractions; see :meth:`CoverageReport.verdicts`)
THRESHOLDS = {
    # toggle coverage over all nets is naturally modest on a short gate
    # workload (wide datapath constants, debug-only plumbing); measured
    # floor on the reference workload is ~0.24
    "structural_toggle": 0.20,
    # the acceptance bar: the protected design's guard nets must be
    # genuinely exercised, not merely present
    "enforcement_toggle": 0.90,
    # clean traffic only taints the nets on the active datapath; most
    # shadow nets belong to violation plumbing that stays silent unless
    # a fault arms it (measured ~0.16 with one armed stage)
    "taint": 0.12,
    # at least this fraction of synthesized sites must ever arm
    "sites_armed": 0.10,
    # the smoke fault campaign samples a strict subset by design
    "fault_injected": 0.05,
}

_MASK64 = (1 << 64) - 1


# -- the coverage map --------------------------------------------------------------

class CoverageMap:
    """Accumulated coverage masks, mergeable and serializable.

    ``signals[path]`` is ``{"width", "rise", "fall", "ever"}`` — integer
    bit masks of positions ever seen rising, falling, or set.
    ``mems[path]`` is ``{"depth", "written", "read", "read_observed"}``
    — address *bit sets* (bit ``a`` = address ``a`` touched);
    ``read_observed`` is False when every read port of that memory has
    an address expression the collector cannot evaluate.
    """

    def __init__(self):
        self.signals: Dict[str, Dict[str, int]] = {}
        self.mems: Dict[str, Dict[str, object]] = {}
        self.cycles = 0
        self.backends: List[str] = []

    # -- merge / serialize -------------------------------------------------------
    def merge(self, other: "CoverageMap") -> "CoverageMap":
        """OR ``other`` into this map (union of everything observed)."""
        for path, o in other.signals.items():
            s = self.signals.setdefault(
                path, {"width": o["width"], "rise": 0, "fall": 0, "ever": 0})
            s["rise"] |= o["rise"]
            s["fall"] |= o["fall"]
            s["ever"] |= o["ever"]
        for path, o in other.mems.items():
            m = self.mems.setdefault(
                path, {"depth": o["depth"], "written": 0, "read": 0,
                       "read_observed": o["read_observed"]})
            m["written"] |= o["written"]
            m["read"] |= o["read"]
            m["read_observed"] = bool(m["read_observed"]
                                      or o["read_observed"])
        self.cycles += other.cycles
        for be in other.backends:
            if be not in self.backends:
                self.backends.append(be)
        return self

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "backends": list(self.backends),
            "signals": {p: {"width": s["width"], "rise": hex(s["rise"]),
                            "fall": hex(s["fall"]), "ever": hex(s["ever"])}
                        for p, s in sorted(self.signals.items())},
            "mems": {p: {"depth": m["depth"], "written": hex(m["written"]),
                         "read": hex(m["read"]),
                         "read_observed": m["read_observed"]}
                     for p, m in sorted(self.mems.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageMap":
        cm = cls()
        cm.cycles = int(data.get("cycles", 0))
        cm.backends = list(data.get("backends", []))
        for p, s in data.get("signals", {}).items():
            cm.signals[p] = {"width": int(s["width"]),
                             "rise": int(s["rise"], 16),
                             "fall": int(s["fall"], 16),
                             "ever": int(s["ever"], 16)}
        for p, m in data.get("mems", {}).items():
            cm.mems[p] = {"depth": int(m["depth"]),
                          "written": int(m["written"], 16),
                          "read": int(m["read"], 16),
                          "read_observed": bool(m["read_observed"])}
        return cm

    def fingerprint(self) -> str:
        """Content hash of the masks alone (not cycles/backends) — equal
        fingerprints mean bit-identical coverage."""
        d = self.to_dict()
        body = json.dumps({"signals": d["signals"], "mems": d["mems"]},
                          sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    # -- summary helpers ---------------------------------------------------------
    def toggle_stats(self, paths: Optional[Sequence[str]] = None
                     ) -> Dict[str, int]:
        """Bit counts over ``paths`` (default: every net): total bits,
        bits that both rose and fell, nets that never moved at all."""
        sel = self.signals if paths is None else {
            p: self.signals[p] for p in paths if p in self.signals}
        total = covered = dead = 0
        for s in sel.values():
            total += s["width"]
            covered += bin(s["rise"] & s["fall"]).count("1")
            if not (s["rise"] | s["fall"]):
                dead += 1
        return {"nets": len(sel), "bits": total, "toggled_bits": covered,
                "dead_nets": dead}


def enforcement_net(path: str) -> bool:
    """Is ``path`` one of the protected design's enforcement/guard nets?

    The stall controller, declassifier, output buffer, the pipeline
    advance grant, and the per-stage tag registers — the nets whose
    toggling proves the enforcement ring was actually driven, as opposed
    to the synthesized monitor plane (``__conf``/``__integ``/``__tag``,
    classified separately as taint and site coverage).
    """
    name = path.rsplit(".", 1)[-1]
    if name.endswith("__conf") or name.endswith("__integ"):
        return False
    if "__tag" in path:
        return False
    parts = set(path.split("."))
    if parts & {"stallctl", "declass", "outbuf"}:
        return True
    return name in ("advance", "tag_r")


# -- address-expression probes -----------------------------------------------------

def _addr_probe(node):
    """Resolve a read-port address expression to an observable form.

    Returns ``("const", addr)``, ``("sig", signal, shift, width)`` for a
    signal / slice-of-signal chain, or ``None`` when the expression is
    not observable this way (reported as an unobserved port — the same
    verdict on every backend, which keeps the maps bit-identical).
    """
    width = node.width
    shift = 0
    while True:
        kind = node.kind
        if kind == "const":
            return ("const", (node.value >> shift) & ((1 << width) - 1))
        if kind == "signal":
            return ("sig", node, shift, width)
        if kind == "ref":
            return ("sig", node.signal, shift, width)
        if kind == "slice":
            shift += node.lo
            node = node.a
            continue
        return None


def _mem_read_ports(netlist):
    """Every distinct (mem, probe) read port in the design."""
    ports = []
    seen = set()
    unobserved = set()
    for node in netlist.all_nodes():
        if node.kind != "memread":
            continue
        probe = _addr_probe(node.addr)
        if probe is not None and probe[0] == "sig" \
                and probe[2] % 64 + probe[3] > 64:
            # a slice straddling a 64-bit limb boundary: the batched
            # fast path cannot read it from one row, so no backend
            # observes it — the maps stay bit-identical
            probe = None
        if probe is None:
            unobserved.add(node.mem.path)
            continue
        key = (node.mem.path, probe[0],
               probe[1] if probe[0] == "const" else
               (probe[1].path, probe[2], probe[3]))
        if key in seen:
            continue
        seen.add(key)
        ports.append((node.mem, probe))
    return ports, unobserved


# -- the collector -----------------------------------------------------------------

class CoverageCollector:
    """Watcher accumulating the structural coverage map of one sim.

    Attach to a :class:`~repro.hdl.sim.engine.Simulator` (any backend),
    drive the workload, then call :meth:`finish` (or leave the ``with``
    block) and read :attr:`map`.  Each watcher invocation snapshots
    every signal (and the writable memories) and ORs the observed
    rises/falls/values into the map; on the batched backend one
    vectorized pass over the limb arrays covers all lanes at once.
    """

    def __init__(self, sim):
        self.sim = sim
        self.signals = list(sim.value_signals())
        self._paths = [s.path for s in self.signals]
        self.lanes = sim.lanes
        self.map = CoverageMap()
        self.map.backends.append(sim.backend_name)
        for s in self.signals:
            self.map.signals[s.path] = {"width": s.width, "rise": 0,
                                        "fall": 0, "ever": 0}
        # memories: written-addr coverage for every mem with write ports,
        # read-addr coverage for observable read ports
        self._wmems = sorted(sim.netlist.mem_writes,
                             key=lambda m: m.path)
        self._ports, unobserved = _mem_read_ports(sim.netlist)
        read_mems = {m.path for m, _probe in self._ports}
        for mem in sim.netlist.mems:
            if mem not in sim.netlist.mem_writes \
                    and mem.path not in read_mems \
                    and mem.path not in unobserved:
                continue  # ROM nobody reads: nothing to cover
            self.map.mems[mem.path] = {
                "depth": mem.depth, "written": 0, "read": 0,
                "read_observed": mem.path in read_mems}
        self._sig_index = {p: i for i, p in enumerate(self._paths)}
        self._prev = None
        self._prev_mems = None
        self._use_np = (_np is not None and sim.backend_name == "batched")
        if self._use_np:
            self._init_np_rows()
        self._attached = True
        sim.add_watcher(self._on_cycle)

    def __enter__(self) -> "CoverageCollector":
        return self

    def __exit__(self, *exc) -> bool:
        self.finish()
        return False

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_watcher(self._on_cycle)
            self._attached = False

    def finish(self) -> CoverageMap:
        """Take one final snapshot (the watcher observes the state
        *before* each step, so the last step's effects land here), fold
        the row accumulators into the map, and detach."""
        if self._attached:
            self._observe()
            self.detach()
            if self._use_np:
                self._fold_np_rows()
        return self.map

    # -- batched fast path: limb rows <-> signal metadata ------------------------
    def _init_np_rows(self) -> None:
        # (signal index, base row, limb count) per signal, plus three
        # uint64 accumulators per row — folded back per-signal at finish
        self._row_of: List[Tuple[int, int, int]] = [
            (i, *self.sim.row_span(sig)) for i, sig in enumerate(self.signals)]
        n_rows = sum(nlimbs for _i, _row0, nlimbs in self._row_of)
        self._rise_rows = _np.zeros(n_rows, dtype=_np.uint64)
        self._fall_rows = _np.zeros(n_rows, dtype=_np.uint64)
        self._ever_rows = _np.zeros(n_rows, dtype=_np.uint64)

    def _fold_np_rows(self) -> None:
        for i, row0, nlimbs in self._row_of:
            rise = fall = ever = 0
            for j in range(nlimbs):
                rise |= int(self._rise_rows[row0 + j]) << (64 * j)
                fall |= int(self._fall_rows[row0 + j]) << (64 * j)
                ever |= int(self._ever_rows[row0 + j]) << (64 * j)
            s = self.map.signals[self._paths[i]]
            mask = (1 << s["width"]) - 1
            s["rise"] |= rise & mask
            s["fall"] |= fall & mask
            s["ever"] |= ever & mask

    # -- capture -----------------------------------------------------------------
    def _on_cycle(self, sim) -> None:
        self._observe()

    def _observe(self) -> None:
        if self._use_np:
            self._observe_np()
        else:
            self._observe_py()
        self.map.cycles += 1

    def _observe_py(self) -> None:
        snap = self.sim.values(0)
        sigs = self.map.signals
        prev = self._prev
        if prev is None:
            for i, p in enumerate(self._paths):
                sigs[p]["ever"] |= snap[i]
        else:
            for i, p in enumerate(self._paths):
                c = snap[i]
                s = sigs[p]
                d = prev[i] ^ c
                if d:
                    s["rise"] |= d & c
                    s["fall"] |= d & prev[i]
                s["ever"] |= c
        self._prev = snap
        self._observe_mems_py(snap)

    def _observe_mems_py(self, snap) -> None:
        cur = [self.sim.mem_rows(m) for m in self._wmems]
        prev = self._prev_mems
        if prev is not None:
            for k, mem in enumerate(self._wmems):
                pm, cm = prev[k], cur[k]
                if pm != cm:
                    entry = self.map.mems[mem.path]
                    for a in range(mem.depth):
                        if pm[a] != cm[a]:
                            entry["written"] |= 1 << a
        self._prev_mems = cur
        for mem, probe in self._ports:
            if probe[0] == "const":
                addr = probe[1]
            else:
                _tag, sig, shift, width = probe
                addr = (snap[self._sig_index[sig.path]] >> shift) \
                    & ((1 << width) - 1)
            if addr < mem.depth:
                self.map.mems[mem.path]["read"] |= 1 << addr

    def _observe_np(self) -> None:
        snap = self.sim.snapshot_rows()
        prev = self._prev
        if prev is not None:
            d = prev ^ snap
            # OR-reduce the per-lane masks across the lane axis: the
            # merged map covers everything any lane did
            self._rise_rows |= _np.bitwise_or.reduce(d & snap, axis=1)
            self._fall_rows |= _np.bitwise_or.reduce(d & prev, axis=1)
        self._ever_rows |= _np.bitwise_or.reduce(snap, axis=1)
        self._prev = snap
        self._observe_mems_np(snap)

    def _observe_mems_np(self, snap) -> None:
        cur = [self.sim.mem_rows(m) for m in self._wmems]
        prev = self._prev_mems
        if prev is not None:
            for k, mem in enumerate(self._wmems):
                entry = self.map.mems[mem.path]
                for pm, cm in zip(prev[k], cur[k]):
                    changed = _np.nonzero((pm != cm).any(axis=1))[0]
                    for a in changed:
                        entry["written"] |= 1 << int(a)
        self._prev_mems = cur
        for mem, probe in self._ports:
            entry = self.map.mems[mem.path]
            if probe[0] == "const":
                if probe[1] < mem.depth:
                    entry["read"] |= 1 << probe[1]
                continue
            _tag, sig, shift, width = probe
            i = self._sig_index[sig.path]
            _idx, row0, _nlimbs = self._row_of[i]
            j, sh = divmod(shift, 64)
            vals = snap[row0 + j] >> _np.uint64(sh)
            mask = (1 << width) - 1
            for lane in range(self.lanes):
                addr = int(vals[lane]) & mask
                if addr < mem.depth:
                    entry["read"] |= 1 << addr


# -- the gate workload -------------------------------------------------------------

def _drive_workload(drv, users) -> None:
    """The deterministic coverage workload.

    All four users encrypt (u0/u1 also decrypt); the consumer is held
    closed while a burst of responses lands, filling the output buffer
    until it drops and the stall meet revokes ``advance`` (both
    directions of every guard); then alternating readers drain it,
    exercising the per-reader queues, the tag-gated head matching, and
    the declassifier release path for every principal."""
    from ..accel.common import CMD_DECRYPT, CMD_ENCRYPT

    u0, u1 = users["u0"], users["u1"]
    top = drv.top
    drv.set_reader(u0, ready=True)
    drv._idle_inputs()
    drv.allocate_slot(1, u0)
    drv.allocate_slot(2, u1)
    key_a = 0x000102030405060708090A0B0C0D0E0F
    key_b = 0x0F0E0D0C0B0A09080706050403020100
    drv.load_key(u0, 1, key_a)
    drv.load_key(u1, 2, key_b)

    # burst A — homogeneous: five u0 blocks into a closed consumer
    # overrun the four-deep per-reader queue; with only one principal in
    # flight the stall meet *grants* the stall, pulling advance low
    drv.set_reader(u0, ready=False)
    plains = [0x00112233445566778899AABBCCDDEEFF + i for i in range(5)]
    for p in plains:
        drv.issue(CMD_ENCRYPT, u0, slot=1, data=p)
    drv.step(45)
    for _ in range(25):
        drv.set_reader(u0, ready=True)
        drv.step(1)
        drv.take_responses()

    # burst B — mixed principals: the u0 overrun block reaches the
    # declassifier while u1 traffic is still in flight behind it, so
    # the meet *denies* the stall (a grant would modulate the public
    # stall line with another user's traffic) and the block is dropped
    # instead — the fail-closed branch of Fig. 8
    drv.set_reader(u0, ready=False)
    for p in plains:
        drv.issue(CMD_ENCRYPT, u0, slot=1, data=p ^ 0xFF)
    drv.issue(CMD_ENCRYPT, u1, slot=2,
              data=0xFFEEDDCCBBAA99887766554433221100)
    drv.issue(CMD_ENCRYPT, u1, slot=2,
              data=0x0123456789ABCDEF0123456789ABCDEF)
    drv.step(55)

    # alternating drain: both readers take their queues; the
    # wrong-reader head cycles exercise the holding path
    for i in range(40):
        drv.set_reader(u0 if i % 4 < 2 else u1, ready=True)
        drv.step(1)
        drv.take_responses()

    # u2 / u3 traffic: their vouch bits hash to output-buffer queue
    # slots 2 and 3, walking the count/wptr/rptr sets no other
    # principal can reach; key slot 3 is supervisor-reassigned between
    # them (slots 1 and 2 stay owned by u0/u1)
    u2, u3 = users["u2"], users["u3"]
    drv.allocate_slot(3, u2)
    drv.load_key(u2, 3, 0xFEDCBA98765432100123456789ABCDEF)
    drv.issue(CMD_ENCRYPT, u2, slot=3,
              data=0x5555AAAA5555AAAA5555AAAA5555AAAA)
    drv.set_reader(u2, ready=True)
    drv.step(40)
    drv.take_responses()
    drv.allocate_slot(3, u3)
    drv.load_key(u3, 3, 0xA5A5A5A5A5A5A5A55A5A5A5A5A5A5A5A)
    drv.issue(CMD_ENCRYPT, u3, slot=3,
              data=0x3333CCCC3333CCCC3333CCCC3333CCCC)
    drv.set_reader(u3, ready=True)
    drv.step(40)
    drv.take_responses()

    # decryption pass with alternating readers
    drv.issue(CMD_DECRYPT, u0, slot=1,
              data=0x69C4E0D86A7B0430D8CDB78070B4C55A)
    drv.issue(CMD_DECRYPT, u1, slot=2,
              data=0x0A940BB5416EF045F1C39458C653EA5A)
    for i in range(50):
        drv.set_reader(u1 if i % 4 < 2 else u0, ready=True)
        drv.step(1)
        drv.take_responses()


def run_coverage_collection(backend: str = "compiled",
                            lanes: int = 1,
                            with_fault_arm: bool = True,
                            ) -> Tuple[CoverageMap, dict]:
    """Collect one backend's coverage map over the gate workload.

    Two collection phases, OR-merged: a clean tag-tracking run of the
    protected accelerator (structural + taint + guard toggles), then —
    when ``with_fault_arm`` — the same workload under a stuck-at-1
    over-taint fault on one pipeline stage's shadow conf net, which
    forces the synthesized flow sites downstream to arm (the
    enforcement plane's positive control).  Returns the map and the tag
    plan's static census (shadow nets + sites) for the analysis layer.
    """
    from ..accel.common import LATTICE
    from ..accel.driver import AcceleratorDriver, make_users
    from ..accel.protected import AesAcceleratorProtected
    from ..faults import Fault, FaultKind, FaultPlan

    users = make_users()
    drv = AcceleratorDriver(AesAcceleratorProtected(), backend=backend,
                            tag_tracking=True, lattice=LATTICE)
    if backend == "batched" and lanes > 1:
        # the driver pokes every lane identically, so the OR-merged map
        # must stay bit-identical to the single-lane backends' maps
        from ..hdl.sim.engine import Simulator

        drv.sim = Simulator(AesAcceleratorProtected(), backend=backend,
                            lanes=lanes, tag_tracking=True, lattice=LATTICE)
    plan = drv.sim.tag_plan
    with CoverageCollector(drv.sim) as col:
        _drive_workload(drv, users)
    cmap = col.map

    if with_fault_arm:
        # over-taint the very first pipeline stage: every declared sink
        # downstream must scream, arming the flow sites end to end
        target = "aes.pipe.sa1.data_r__conf"
        fdrv = AcceleratorDriver(AesAcceleratorProtected(), backend=backend,
                                 tag_tracking=True, lattice=LATTICE,
                                 fault_targets=[target])
        fdrv.sim.load_fault_plan(FaultPlan([
            Fault(target, FaultKind.STUCK_AT_1, 0xF, cycle=8, duration=40)]))
        with CoverageCollector(fdrv.sim) as fcol:
            _drive_workload(fdrv, users)
        cmap.merge(fcol.map)

    census = {
        "shadow_nets": [(plane, orig, sh.path)
                        for plane, orig, sh in plan.shadow_nets()],
        "sites": plan.site_census(),
        "principals": list(plan.lattice.principals),
    }
    return cmap, census


# -- analysis ----------------------------------------------------------------------

def _plane_structural(cmap: CoverageMap) -> dict:
    stats = cmap.toggle_stats()
    frac = (stats["toggled_bits"] / stats["bits"]) if stats["bits"] else 1.0
    dead = sorted(p for p, s in cmap.signals.items()
                  if not (s["rise"] | s["fall"]))
    mems = {}
    for p, m in sorted(cmap.mems.items()):
        mems[p] = {
            "depth": m["depth"],
            "written_addrs": bin(m["written"]).count("1"),
            "read_addrs": bin(m["read"]).count("1"),
            "read_observed": m["read_observed"],
        }
    return {"fraction": frac, **stats, "mems": mems,
            "never_toggled": dead}


def _plane_taint(cmap: CoverageMap, census: dict) -> dict:
    principals = census["principals"]
    per_principal = {p: 0 for p in principals}
    tainted = 0
    never = []
    planes = {"conf": 0, "integ": 0}
    for plane, _orig, shadow_path in census["shadow_nets"]:
        ever = cmap.signals.get(shadow_path, {}).get("ever", 0)
        if ever:
            tainted += 1
            planes[plane] += 1
            for i, p in enumerate(principals):
                if ever & (1 << i):
                    per_principal[p] += 1
        else:
            never.append(shadow_path)
    total = len(census["shadow_nets"])
    return {
        "shadow_nets": total,
        "tainted": tainted,
        "fraction": (tainted / total) if total else 1.0,
        "by_plane": planes,
        "per_principal": per_principal,
        "never_tainted": sorted(never),
    }


def _plane_enforcement(cmap: CoverageMap, census: dict) -> dict:
    guard_paths = sorted(p for p in cmap.signals if enforcement_net(p))
    stats = cmap.toggle_stats(guard_paths)
    frac = (stats["toggled_bits"] / stats["bits"]) if stats["bits"] else 1.0
    dead_guards = sorted(p for p in guard_paths
                         if not (cmap.signals[p]["rise"]
                                 | cmap.signals[p]["fall"]))
    armed = 0
    never_armed = []
    for site in census["sites"]:
        ever = (cmap.signals.get(site["now"], {}).get("ever", 0)
                | cmap.signals.get(site["sticky"], {}).get("ever", 0))
        if ever:
            armed += 1
        else:
            never_armed.append(site)
    nsites = len(census["sites"])
    return {
        "guard_nets": len(guard_paths),
        "guard_toggle_fraction": frac,
        "guard_bits": stats["bits"],
        "guard_toggled_bits": stats["toggled_bits"],
        "never_toggled_guards": dead_guards,
        "sites": nsites,
        "sites_armed": armed,
        "sites_armed_fraction": (armed / nsites) if nsites else 1.0,
        "never_armed_sites": never_armed,
    }


def _plane_campaign(seed: int, smoke: bool, with_faults: bool) -> dict:
    from ..faults.campaign import (
        coverage_scenarios as fault_rows,
        fault_coverage,
        protected_fault_scenarios,
        run_paired_fault_campaign,
    )
    from .flows import coverage_scenarios as flow_rows
    from .leakage import coverage_scenarios as leak_rows
    from .power import coverage_scenarios as power_rows

    scenarios = protected_fault_scenarios(seed, smoke=smoke,
                                          shadow_tags=True)
    fc = fault_coverage(scenarios, shadow_tags=True)
    outcome_matrix: Dict[str, Dict[str, int]] = {}
    if with_faults:
        paired = run_paired_fault_campaign(seed=seed, smoke=True,
                                           shadow_tags=False)
        for name, rep in (("protected", paired.protected),
                          ("baseline", paired.baseline)):
            row: Dict[str, int] = {}
            for oc in rep.outcomes:
                row[oc.outcome] = row.get(oc.outcome, 0) + 1
            outcome_matrix[name] = row
    matrix = leak_rows() + power_rows() + flow_rows() + fault_rows()
    planes_hit: Dict[str, List[str]] = {}
    for row in matrix:
        for plane in row["planes"]:
            planes_hit.setdefault(plane, []).append(
                f"{row['gate']}:{row['scenario']}")
    return {
        "fault_sites": fc["sites"],
        "fault_injected": fc["injected"],
        "fraction": fc["fraction"],
        "fault_families": fc["families"],
        "never_injected": fc["holes"],
        "outcome_matrix": outcome_matrix,
        "scenario_matrix": matrix,
        "planes_exercised": {p: sorted(set(v))
                             for p, v in sorted(planes_hit.items())},
    }


# -- the report --------------------------------------------------------------------

class CoverageReport:
    """The gate verdict: per-plane summaries, thresholds, ranked holes."""

    def __init__(self, seed: int, backends: List[str],
                 fingerprints: Dict[str, str], consistent: bool,
                 merged: CoverageMap, planes: dict,
                 cumulative: Optional[dict] = None):
        self.seed = seed
        self.backends = backends
        self.fingerprints = fingerprints
        self.consistent = consistent
        self.map = merged
        self.planes = planes
        self.cumulative = cumulative

    def verdicts(self) -> Dict[str, dict]:
        p = self.planes
        checks = {
            "structural_toggle": p["structural"]["fraction"],
            "enforcement_toggle":
                p["enforcement"]["guard_toggle_fraction"],
            "taint": p["taint"]["fraction"],
            "sites_armed": p["enforcement"]["sites_armed_fraction"],
            "fault_injected": p["campaign"]["fraction"],
        }
        return {name: {"value": round(val, 4),
                       "threshold": THRESHOLDS[name],
                       "ok": val >= THRESHOLDS[name]}
                for name, val in checks.items()}

    def holes(self) -> List[dict]:
        """Every hole, ranked most-security-relevant first."""
        out: List[dict] = []
        for site in self.planes["enforcement"]["never_armed_sites"]:
            out.append({"plane": "enforcement", "kind": "never_armed_site",
                        "name": site["path"], "detail": site["kind"]})
        for p in self.planes["enforcement"]["never_toggled_guards"]:
            out.append({"plane": "enforcement", "kind": "never_toggled_guard",
                        "name": p, "detail": ""})
        for p in self.planes["taint"]["never_tainted"]:
            out.append({"plane": "taint", "kind": "never_tainted_net",
                        "name": p, "detail": ""})
        for h in self.planes["campaign"]["never_injected"]:
            out.append({"plane": "campaign", "kind": "never_injected_site",
                        "name": h["site"], "detail": h["family"]})
        for p in self.planes["structural"]["never_toggled"]:
            out.append({"plane": "structural", "kind": "never_toggled_net",
                        "name": p, "detail": ""})
        return out

    @property
    def ok(self) -> bool:
        return self.consistent and all(v["ok"]
                                       for v in self.verdicts().values())

    def to_dict(self, holes_limit: int = 50) -> dict:
        holes = self.holes()
        d = {
            "ok": self.ok,
            "seed": self.seed,
            "backends": self.backends,
            "fingerprints": self.fingerprints,
            "consistent": self.consistent,
            "cycles": self.map.cycles,
            "verdicts": self.verdicts(),
            "planes": {
                "structural": {k: v for k, v in
                               self.planes["structural"].items()
                               if k != "never_toggled"},
                "taint": self.planes["taint"],
                "enforcement": self.planes["enforcement"],
                "campaign": {k: v for k, v in
                             self.planes["campaign"].items()
                             if k != "scenario_matrix"},
            },
            "holes": holes[:holes_limit],
            "holes_total": len(holes),
        }
        if self.cumulative is not None:
            d["cumulative"] = self.cumulative
        return d

    def render(self) -> str:
        v = self.verdicts()
        holes = self.holes()
        lines = [
            f"coverage observatory (seed={self.seed}, "
            f"backends={','.join(self.backends)}, cycles={self.map.cycles})",
            f"cross-backend maps bit-identical: {self.consistent} "
            f"({' '.join(sorted(set(self.fingerprints.values())))})",
        ]
        for name, ver in v.items():
            mark = "ok " if ver["ok"] else "LOW"
            lines.append(f"  [{mark}] {name:20s} {ver['value']:.3f} "
                         f"(>= {ver['threshold']:.2f})")
        st = self.planes["structural"]
        lines.append(f"  structural: {st['toggled_bits']}/{st['bits']} bits "
                     f"toggled over {st['nets']} nets "
                     f"({st['dead_nets']} silent)")
        tp = self.planes["taint"]
        lines.append(f"  taint: {tp['tainted']}/{tp['shadow_nets']} shadow "
                     f"nets carried taint "
                     f"(per principal: {tp['per_principal']})")
        en = self.planes["enforcement"]
        lines.append(f"  enforcement: {en['sites_armed']}/{en['sites']} "
                     f"sites armed; guard toggle "
                     f"{en['guard_toggle_fraction']:.3f} over "
                     f"{en['guard_nets']} nets")
        ca = self.planes["campaign"]
        lines.append(f"  campaign: {ca['fault_injected']}/"
                     f"{ca['fault_sites']} fault sites injected")
        lines.append(f"  holes: {len(holes)} total; top:")
        for h in holes[:8]:
            lines.append(f"    - [{h['plane']}] {h['kind']}: {h['name']}"
                         + (f" ({h['detail']})" if h["detail"] else ""))
        if self.cumulative is not None:
            lines.append(f"  ledger: {self.cumulative['entries']} entries, "
                         f"cumulative toggle "
                         f"{self.cumulative['structural_toggle']:.3f}")
        lines.append(f"VERDICT: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def render_md(self) -> str:
        v = self.verdicts()
        lines = [
            "# Coverage observatory",
            "",
            f"- seed: `{self.seed}`  backends: "
            f"`{', '.join(self.backends)}`  cycles: {self.map.cycles}",
            f"- cross-backend maps bit-identical: **{self.consistent}**",
            "",
            "| plane check | value | threshold | verdict |",
            "|---|---|---|---|",
        ]
        for name, ver in v.items():
            lines.append(f"| {name} | {ver['value']:.3f} | "
                         f">= {ver['threshold']:.2f} | "
                         f"{'pass' if ver['ok'] else '**FAIL**'} |")
        lines += ["", "## Ranked holes", "",
                  "| plane | kind | net / site |", "|---|---|---|"]
        for h in self.holes()[:25]:
            lines.append(f"| {h['plane']} | {h['kind']} | `{h['name']}` |")
        lines += ["", f"**VERDICT: {'PASS' if self.ok else 'FAIL'}**", ""]
        return "\n".join(lines)


# -- the ledger --------------------------------------------------------------------

def append_ledger(path: str, cmap: CoverageMap, summary: dict) -> None:
    """Append one run's map + summary to the append-only JSONL ledger."""
    entry = {"summary": summary, "map": cmap.to_dict()}
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def load_ledger(path: str) -> Tuple[int, CoverageMap]:
    """(entry count, union of every ledger entry's map)."""
    merged = CoverageMap()
    count = 0
    if not os.path.exists(path):
        return 0, merged
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            merged.merge(CoverageMap.from_dict(entry["map"]))
            count += 1
    return count, merged


# -- the campaign ------------------------------------------------------------------

def run_coverage_campaign(backends: Sequence[str] = ("compiled",),
                          seed: int = 2026,
                          lanes: int = 2,
                          smoke: bool = False,
                          with_faults: bool = True,
                          ledger: Optional[str] = None,
                          ) -> CoverageReport:
    """Collect on every backend, check bit-identity, analyse, gate.

    The campaign-plane fault census always uses the *smoke* scenario
    sample: its never-injected diff is the honest account of what a
    smoke CI run leaves untested (the full list still leaves the
    datapath/shadow tails unsampled, so holes exist either way).
    ``smoke`` skips the paired fault outcome matrix but keeps both
    collection phases, so a smoke run still judges every threshold
    honestly.
    """
    maps: Dict[str, CoverageMap] = {}
    fingerprints: Dict[str, str] = {}
    census = None
    for be in backends:
        cmap, census = run_coverage_collection(
            backend=be, lanes=lanes if be == "batched" else 1)
        maps[be] = cmap
        fingerprints[be] = cmap.fingerprint()
    consistent = len(set(fingerprints.values())) == 1
    merged = CoverageMap()
    for cmap in maps.values():
        merged.merge(cmap)

    assert census is not None
    planes = {
        "structural": _plane_structural(merged),
        "taint": _plane_taint(merged, census),
        "enforcement": _plane_enforcement(merged, census),
        "campaign": _plane_campaign(seed, smoke=True,
                                    with_faults=with_faults and not smoke),
    }

    cumulative = None
    if ledger:
        entries, union = load_ledger(ledger)
        union.merge(merged)
        stats = union.toggle_stats()
        cumulative = {
            "entries": entries + 1,
            "structural_toggle": (stats["toggled_bits"] / stats["bits"])
            if stats["bits"] else 1.0,
        }

    report = CoverageReport(seed, list(backends), fingerprints, consistent,
                            merged, planes, cumulative)
    if ledger:
        append_ledger(ledger, merged, {
            "seed": seed, "backends": list(backends),
            "ok": report.ok, "verdicts": report.verdicts()})
    return report


# -- CLI ---------------------------------------------------------------------------

def cmd_obs_coverage(args) -> int:
    """Implementation of ``python -m repro obs coverage``."""
    import sys

    from ..gate import gate_epilogue

    if args.backend == "all":
        backends = ["interp", "compiled"]
        if _np is not None:
            backends.append("batched")
    else:
        if args.backend == "batched" and _np is None:
            print("batched backend needs numpy", file=sys.stderr)
            return 2
        backends = [args.backend]
    report = run_coverage_campaign(
        backends=backends, seed=args.seed, lanes=args.lanes,
        smoke=args.smoke, with_faults=not args.no_faults,
        ledger=args.ledger)
    payload = report.to_dict()
    return gate_epilogue(
        args, ok=report.ok, payload=payload, render=report.render,
        artifacts={"coverage_report.json": payload,
                   "coverage_report.md": report.render_md,
                   "coverage_map.json": report.map.to_dict})
