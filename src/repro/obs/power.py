"""Power side-channel observatory: proxy traces, TVLA/CPA, paired gate.

The leakage observatory (:mod:`repro.obs.leakage`) measures *timing*;
this module measures the other classic physical channel: **power**.  No
analog model is pretended — the power proxy is the standard
architectural estimate that switching activity dominates dynamic power:

* **Hamming distance (HD)** — per cycle, the number of bits that
  changed across every signal in the design (``popcount(prev ^ cur)``
  summed over the bulk :meth:`~repro.hdl.sim.engine.Simulator.values`
  snapshot);
* **weighted toggles** — the same transitions weighted by each signal's
  expression-node cost (:func:`~repro.obs.profile.signal_costs`), a
  fan-in proxy for the capacitance each flip drives.

:class:`PowerCollector` captures both uniformly on all three backends
(interp / compiled / batched) by riding the same watcher + bulk-snapshot
path the profiler uses; on the batched backend it reads the limb arrays
directly (vectorised XOR + popcount) and yields **one trace per lane**,
so thousands of traces come from a handful of batched runs.  Every
sample is attributed to a group (:func:`power_group`): datapath, key
schedule, scratchpad, control, or the synthesized shadow-tag plane
(``…__conf`` / ``…__integ`` nets from ``tag_tracking=True``).

Detectors (reusing the leakage statistics):

* **TVLA** — fixed-vs-random Welch's t per trace point; |t| above the
  4.5 convention flags the design, with binned MI as the cross-check;
* **CPA** — Pearson correlation of the measured trace against the
  ``HW(sbox(plaintext_byte ^ guess))`` model, per byte, all 256
  guesses; the *rank* of the true key byte (0 = recovered) is the
  quantitative "the attack works" half of the verdict.

The paired campaign (:func:`run_power_campaign`, CLI ``python -m repro
obs power``) runs the attack against
:class:`~repro.accel.masked.RoundPowerUnit` in both variants and holds
four claims at once — the CI gate fails unless all do:

1. the unmasked round is *flagged* (TVLA max-|t| > 4.5) and *broken*
   (CPA recovers ≥ :data:`CPA_RECOVERY_TARGET` of 16 key bytes at
   rank 0) within the trace budget;
2. the first-order masked variant, same budget, yields **no** rank-0
   recovery — masking measurably degrades the attack;
3. the protected accelerator's non-power guarantees are unchanged
   (its static IFC check still passes);
4. a short tag-tracking run of the protected accelerator attributes
   activity to every plane, shadow tags included.

Offline, :func:`power_trace_from_vcd` recomputes the identical HD trace
from a recorded VCD (:func:`~repro.hdl.sim.trace.read_vcd`), so traces
can be archived and re-analysed without re-simulating.
"""

from __future__ import annotations

import json
import math
import random
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from .leakage import (
    MI_THRESHOLD,
    T_THRESHOLD,
    binned_mutual_information,
    welch_t_test,
)
from .profile import signal_costs

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a test extra
    _np = None

#: Random traces for the CPA budget (the gate's "within budget").
DEFAULT_TRACES = 512
#: Fixed + random traces per group for the TVLA pass.
DEFAULT_TVLA_TRACES = 64
#: Key bytes that must come out rank 0 for the unmasked gate.
CPA_RECOVERY_TARGET = 12
#: Lanes per batched run (one power trace per lane).
DEFAULT_LANES = 64
#: Cycles stepped per trace; yields this many minus one HD points.
TRACE_CYCLES = 4


def hamming_weight(x: int) -> int:
    return bin(x).count("1")


# -- attribution -----------------------------------------------------------------

def power_group(path: str) -> str:
    """Attribution group of one signal path.

    The shadow-tag plane is recognised by the ``__conf`` / ``__integ``
    suffixes the tag-synthesis transform appends; the other groups key
    off the accelerator's module names (``aes.keyexp``,
    ``aes.scratchpad``, the stall/declass/output-buffer control ring),
    with everything unmatched — pipeline stages included — counted as
    datapath.
    """
    name = path.rsplit(".", 1)[-1]
    if name.endswith("__conf") or name.endswith("__integ"):
        return "shadow_tags"
    parts = set(path.split("."))
    if parts & {"keyexp", "kexp"} or name.startswith(("ksbox", "krcon")):
        return "key_schedule"
    if parts & {"scratchpad", "scratch"}:
        return "scratchpad"
    if parts & {"stallctl", "declass", "outbuf", "axi"}:
        return "control"
    return "datapath"


# -- the collector ---------------------------------------------------------------

class PowerCollector:
    """Watcher turning per-cycle value changes into power-proxy traces.

    Attach to a :class:`~repro.hdl.sim.engine.Simulator` (any backend);
    call :meth:`start_trace` before driving each measurement, then step.
    Each watcher invocation snapshots every signal and appends one
    (HD, weighted) point per lane to the open trace.  Nothing is
    recorded until the first :meth:`start_trace`.

    ``traces_hd[t][lane]`` is the HD point series of lane ``lane`` in
    trace ``t``; ``group_hd`` accumulates HD per attribution group over
    the whole capture (all traces, all lanes).
    """

    def __init__(self, sim):
        self.sim = sim
        self.signals = list(sim.value_signals())
        self._paths = [s.path for s in self.signals]
        self.groups = [power_group(p) for p in self._paths]
        self.group_names = sorted(set(self.groups))
        costs = signal_costs(sim.netlist)
        # inputs cost 0 in the node accounting but their flips still
        # drive fan-out; floor every weight at 1 so the weighted series
        # never silently ignores a toggling signal
        self.weights = [max(1, int(costs.get(s, 0))) for s in self.signals]
        self.lanes = sim.lanes
        self.traces_hd: List[List[List[int]]] = []
        self.traces_weighted: List[List[List[int]]] = []
        self.group_hd: Dict[str, int] = {g: 0 for g in self.group_names}
        self.cycles_observed = 0
        self._prev = None
        self._use_np = (_np is not None and sim.backend_name == "batched"
                        and hasattr(_np, "bitwise_count"))
        if self._use_np:
            self._init_np_rows()
        self._attached = True
        sim.add_watcher(self._on_cycle)

    def __enter__(self) -> "PowerCollector":
        return self

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_watcher(self._on_cycle)
            self._attached = False

    # -- batched fast path: limb-array rows -> signal metadata ------------------
    def _init_np_rows(self) -> None:
        spans = [self.sim.row_span(sig) for sig in self.signals]
        weights = _np.zeros(sum(n for _row0, n in spans), dtype=_np.int64)
        group_rows: Dict[str, List[int]] = {g: [] for g in self.group_names}
        for i, (row0, nlimbs) in enumerate(spans):
            for j in range(nlimbs):
                row = row0 + j
                weights[row] = self.weights[i]
                group_rows[self.groups[i]].append(row)
        self._row_weights = weights
        self._group_rows = {g: _np.array(rows, dtype=_np.intp)
                            for g, rows in group_rows.items() if rows}

    # -- capture ----------------------------------------------------------------
    def start_trace(self) -> None:
        """Open a new trace: the next snapshot becomes its reference."""
        self._prev = None
        self.traces_hd.append([[] for _ in range(self.lanes)])
        self.traces_weighted.append([[] for _ in range(self.lanes)])

    def _on_cycle(self, sim) -> None:
        if not self.traces_hd:
            return  # idle until the first start_trace()
        if self._use_np:
            snap = self.sim.snapshot_rows()
            if self._prev is not None:
                self._accumulate_np(self._prev, snap)
        else:
            snap = [self.sim.values(lane) for lane in range(self.lanes)]
            if self._prev is not None:
                self._accumulate(self._prev, snap)
        self._prev = snap
        self.cycles_observed += 1

    def _accumulate(self, prev, cur) -> None:
        hd_tr = self.traces_hd[-1]
        wt_tr = self.traces_weighted[-1]
        groups, weights, ghd = self.groups, self.weights, self.group_hd
        for lane in range(self.lanes):
            pl, cl = prev[lane], cur[lane]
            hd = wt = 0
            for i, c in enumerate(cl):
                d = pl[i] ^ c
                if d:
                    bits = bin(d).count("1")
                    hd += bits
                    wt += bits * weights[i]
                    ghd[groups[i]] += bits
            hd_tr[lane].append(hd)
            wt_tr[lane].append(wt)

    def _accumulate_np(self, prev, cur) -> None:
        pc = _np.bitwise_count(prev ^ cur).astype(_np.int64)
        hd_per_lane = pc.sum(axis=0)
        wt_per_lane = (pc * self._row_weights[:, None]).sum(axis=0)
        for g, rows in self._group_rows.items():
            self.group_hd[g] += int(pc[rows].sum())
        hd_tr = self.traces_hd[-1]
        wt_tr = self.traces_weighted[-1]
        for lane in range(self.lanes):
            hd_tr[lane].append(int(hd_per_lane[lane]))
            wt_tr[lane].append(int(wt_per_lane[lane]))

    # -- access -----------------------------------------------------------------
    def flat_hd_traces(self) -> List[List[int]]:
        """All HD traces, trace-major then lane-major (batched runs
        contribute ``lanes`` traces each)."""
        return [lane_tr for tr in self.traces_hd for lane_tr in tr]

    def flat_weighted_traces(self) -> List[List[int]]:
        return [lane_tr for tr in self.traces_weighted for lane_tr in tr]


# -- offline replay --------------------------------------------------------------

def power_trace_from_vcd(path: str,
                         signals: Optional[Sequence[str]] = None
                         ) -> List[int]:
    """Recompute the HD power trace from a recorded VCD.

    Replays the value changes of :func:`~repro.hdl.sim.trace.read_vcd`
    (carrying values forward from ``$dumpvars``) and returns one HD
    point per timestep after the first — exactly what a live
    :class:`PowerCollector` over the same signal set produces.
    Timesteps are the integer range between the first and last recorded
    time, so quiet interior cycles contribute their zero points
    (trailing all-quiet cycles leave no mark in a VCD and cannot be
    recovered).  ``signals`` restricts the replay to those dotted paths.
    """
    from ..hdl.sim.trace import read_vcd

    data = read_vcd(path)
    changes: Dict[str, List[Tuple[int, Optional[int]]]] = data["changes"]
    if signals is not None:
        keep = set(signals)
        changes = {p: evs for p, evs in changes.items() if p in keep}
    by_time: Dict[int, List[Tuple[str, Optional[int]]]] = {}
    for p, evs in changes.items():
        for t, v in evs:
            by_time.setdefault(t, []).append((p, v))
    if not by_time:
        return []
    t0, t1 = min(by_time), max(by_time)
    cur: Dict[str, int] = {}
    trace: List[int] = []
    for t in range(t0, t1 + 1):
        hd = 0
        for p, v in by_time.get(t, ()):
            if v is None:
                continue  # x/z: unknown carries no transition
            old = cur.get(p)
            if old is not None:
                hd += hamming_weight(old ^ v)
            cur[p] = v
        if t > t0:
            trace.append(hd)
    return trace


# -- CPA -------------------------------------------------------------------------

class CpaResult:
    """Per-byte CPA outcome against a known key."""

    def __init__(self, ranks: List[int], best_guesses: List[int],
                 best_corr: List[float], correct_corr: List[float],
                 traces: int):
        self.ranks = ranks
        self.best_guesses = best_guesses
        self.best_corr = best_corr
        self.correct_corr = correct_corr
        self.traces = traces

    @property
    def recovered(self) -> int:
        """Key bytes ranked 0 (no guess strictly better than the truth)."""
        return sum(1 for r in self.ranks if r == 0)

    def to_dict(self) -> dict:
        return {"traces": self.traces, "ranks": self.ranks,
                "recovered_bytes": self.recovered,
                "best_guesses": self.best_guesses,
                "best_corr": [round(c, 4) for c in self.best_corr],
                "correct_corr": [round(c, 4) for c in self.correct_corr]}


def _key_bytes(key: int) -> List[int]:
    return [(key >> (8 * (15 - b))) & 0xFF for b in range(16)]


def cpa_attack(traces: Sequence[Sequence[int]], plaintexts: Sequence[int],
               key: int) -> CpaResult:
    """First-round CPA: correlate ``HW(sbox(p ^ guess))`` per byte.

    For every byte position and all 256 guesses, Pearson-correlate the
    hypothesis vector against each trace point and score the guess by
    its best |r|; the true byte's rank is the number of guesses scoring
    strictly higher.  Vectorised with numpy when available; the pure
    fallback computes the same statistics.
    """
    from ..aes.constants import SBOX

    n = len(traces)
    if n < 8:
        raise ValueError(f"CPA needs a sensible trace count (got {n})")
    kb = _key_bytes(key)
    if _np is not None:
        return _cpa_np(traces, plaintexts, kb, SBOX)
    return _cpa_py(traces, plaintexts, kb, SBOX)


def _cpa_np(traces, plaintexts, kb, SBOX) -> CpaResult:
    n = len(traces)
    X = _np.asarray(traces, dtype=_np.float64)
    Xc = X - X.mean(axis=0)
    xnorm = _np.sqrt((Xc ** 2).sum(axis=0))
    xnorm[xnorm == 0.0] = _np.inf  # constant point correlates with nothing
    sbox_hw = _np.array([hamming_weight(v) for v in SBOX], dtype=_np.float64)
    guesses = _np.arange(256, dtype=_np.int64)
    ranks, bests, best_corr, correct_corr = [], [], [], []
    for b in range(16):
        pb = _np.array([(p >> (8 * (15 - b))) & 0xFF for p in plaintexts],
                       dtype=_np.int64)
        H = sbox_hw[pb[None, :] ^ guesses[:, None]]  # (256, n)
        Hc = H - H.mean(axis=1, keepdims=True)
        hnorm = _np.sqrt((Hc ** 2).sum(axis=1))
        hnorm[hnorm == 0.0] = _np.inf
        corr = _np.abs(Hc @ Xc) / (hnorm[:, None] * xnorm[None, :])
        score = corr.max(axis=1)
        truth = kb[b]
        ranks.append(int((score > score[truth]).sum()))
        bests.append(int(score.argmax()))
        best_corr.append(float(score.max()))
        correct_corr.append(float(score[truth]))
    return CpaResult(ranks, bests, best_corr, correct_corr, n)


def _cpa_py(traces, plaintexts, kb, SBOX) -> CpaResult:
    n = len(traces)
    npts = len(traces[0])
    # centre each trace point once, not once per guess
    cols = []
    for t in range(npts):
        col = [tr[t] for tr in traces]
        mc = sum(col) / n
        cc = [c - mc for c in col]
        var = sum(c * c for c in cc)
        cols.append((cc, math.sqrt(var) if var > 0 else math.inf))
    sbox_hw = [hamming_weight(v) for v in SBOX]
    ranks, bests, best_corr, correct_corr = [], [], [], []
    for b in range(16):
        pb = [(p >> (8 * (15 - b))) & 0xFF for p in plaintexts]
        scores = []
        for guess in range(256):
            hyp = [sbox_hw[x ^ guess] for x in pb]
            mh = sum(hyp) / n
            hc = [h - mh for h in hyp]
            hvar = sum(h * h for h in hc)
            hn = math.sqrt(hvar) if hvar > 0 else math.inf
            best = 0.0
            for cc, cn in cols:
                cov = sum(h * c for h, c in zip(hc, cc))
                r = abs(cov) / (hn * cn)
                if r > best:
                    best = r
            scores.append(best)
        truth = kb[b]
        ranks.append(sum(1 for s in scores if s > scores[truth]))
        bests.append(max(range(256), key=lambda g: scores[g]))
        best_corr.append(max(scores))
        correct_corr.append(scores[truth])
    return CpaResult(ranks, bests, best_corr, correct_corr, n)


# -- TVLA ------------------------------------------------------------------------

class TvlaResult:
    """Fixed-vs-random verdict over every trace point."""

    def __init__(self, t_per_point: List[float], mi_bits: float,
                 n_fixed: int, n_random: int,
                 t_threshold: float = T_THRESHOLD,
                 mi_threshold: float = MI_THRESHOLD):
        self.t_per_point = t_per_point
        self.mi_bits = mi_bits
        self.n_fixed = n_fixed
        self.n_random = n_random
        self.t_threshold = t_threshold
        self.mi_threshold = mi_threshold

    @property
    def max_t(self) -> float:
        return max((abs(t) for t in self.t_per_point), default=0.0)

    @property
    def worst_point(self) -> int:
        ts = [abs(t) for t in self.t_per_point]
        return ts.index(max(ts)) if ts else -1

    @property
    def flagged(self) -> bool:
        return self.max_t > self.t_threshold

    def to_dict(self) -> dict:
        return {"t_per_point": [round(t, 3) for t in self.t_per_point],
                "max_abs_t": round(self.max_t, 3),
                "worst_point": self.worst_point,
                "mi_bits": round(self.mi_bits, 4),
                "n_fixed": self.n_fixed, "n_random": self.n_random,
                "t_threshold": self.t_threshold,
                "mi_threshold": self.mi_threshold,
                "flagged": self.flagged}


def tvla_test(fixed_traces: Sequence[Sequence[int]],
              random_traces: Sequence[Sequence[int]]) -> TvlaResult:
    """Welch's t per trace point, fixed group vs random group, plus
    binned MI at the worst point as the detector's cross-check."""
    npts = len(fixed_traces[0])
    ts = [welch_t_test([tr[i] for tr in fixed_traces],
                       [tr[i] for tr in random_traces]).t
          for i in range(npts)]
    worst = max(range(npts), key=lambda i: abs(ts[i])) if npts else 0
    values = ([tr[worst] for tr in fixed_traces]
              + [tr[worst] for tr in random_traces])
    conds = [0] * len(fixed_traces) + [1] * len(random_traces)
    mi = binned_mutual_information(values, conds)
    return TvlaResult(ts, mi, len(fixed_traces), len(random_traces))


# -- trace collection over the round unit ----------------------------------------

def _campaign_key(seed: int) -> int:
    return random.Random(seed * 2654435761 + 7).getrandbits(128)


def _build_round_sim(masked: bool, backend: str, lanes: int):
    from ..accel.masked import RoundPowerUnit
    from ..hdl.sim.engine import Simulator

    unit = RoundPowerUnit(masked=masked)
    kwargs = {"lanes": lanes} if backend == "batched" else {}
    return Simulator(unit, backend=backend, **kwargs)


def _drive_traces(sim, collector: PowerCollector, plaintexts: Sequence[int],
                  key: int, masked: bool, rng: random.Random) -> None:
    """One collector trace per plaintext; batched fills lanes in bulk."""
    from ..accel.masked import mask128, masked_sbox_table

    lanes = collector.lanes
    top = sim.netlist.root.path
    for base in range(0, len(plaintexts), lanes):
        chunk = plaintexts[base:base + lanes]
        if len(chunk) < lanes:  # pad the last batched run
            chunk = list(chunk) + [chunk[-1]] * (lanes - len(chunk))
        sim.reset()
        for lane, plain in enumerate(chunk):
            if masked:
                m_in = rng.randrange(256)
                m_out = rng.randrange(256)
                table = masked_sbox_table(m_in, m_out)
                for addr, v in enumerate(table):
                    sim.poke_mem(f"{top}.msbox", addr, v, lane=lane)
                sim.poke(f"{top}.in_state", plain ^ mask128(m_in), lane=lane)
                sim.poke(f"{top}.in_mask_out", m_out, lane=lane)
            else:
                sim.poke(f"{top}.in_state", plain, lane=lane)
        sim.poke(f"{top}.in_key", key)
        sim.poke(f"{top}.in_valid", 1)
        collector.start_trace()
        sim.step(1)
        sim.poke(f"{top}.in_valid", 0)
        sim.step(TRACE_CYCLES - 1)


def collect_power_traces(masked: bool = False,
                         ntraces: int = DEFAULT_TRACES,
                         seed: int = 2026,
                         backend: str = "compiled",
                         lanes: int = 1,
                         fixed_plain: Optional[int] = None,
                         key: Optional[int] = None,
                         ) -> Tuple[List[int], List[List[int]], float]:
    """Collect ``ntraces`` HD traces from the round unit.

    Returns ``(plaintexts, hd_traces, wall_seconds)``.  ``fixed_plain``
    pins every trace to one plaintext (the TVLA fixed group); otherwise
    plaintexts are seeded-random.  On the batched backend each run
    yields ``lanes`` traces.
    """
    if backend != "batched":
        lanes = 1
    rng = random.Random(seed)
    key = _campaign_key(seed) if key is None else key
    plaintexts = [fixed_plain if fixed_plain is not None
                  else rng.getrandbits(128) for _ in range(ntraces)]
    sim = _build_round_sim(masked, backend, lanes)
    t0 = perf_counter()
    with PowerCollector(sim) as col:
        _drive_traces(sim, col, plaintexts, key, masked, rng)
    wall = perf_counter() - t0
    return plaintexts, col.flat_hd_traces()[:ntraces], wall


# -- the paired campaign ---------------------------------------------------------

class PowerScenarioReport:
    """One variant's measurements and verdict inputs."""

    def __init__(self, design: str, backend: str, lanes: int,
                 tvla: TvlaResult, cpa: CpaResult,
                 traces_per_second: float, points: int):
        self.design = design
        self.backend = backend
        self.lanes = lanes
        self.tvla = tvla
        self.cpa = cpa
        self.traces_per_second = traces_per_second
        self.points = points

    def to_dict(self) -> dict:
        return {"design": self.design, "backend": self.backend,
                "lanes": self.lanes, "points": self.points,
                "traces_per_second": round(self.traces_per_second, 1),
                "tvla": self.tvla.to_dict(), "cpa": self.cpa.to_dict()}

    def render(self) -> str:
        c = self.cpa
        return (f"{self.design:8s} (backend={self.backend}, "
                f"lanes={self.lanes}): "
                f"TVLA max|t|={self.tvla.max_t:8.1f} "
                f"(>{self.tvla.t_threshold}) "
                f"MI={self.tvla.mi_bits:.3f}b | "
                f"CPA {c.recovered:2d}/16 bytes rank-0 over {c.traces} "
                f"traces ({self.traces_per_second:.0f} traces/s)")


class PowerCampaignResult:
    """The paired unmasked/masked verdict plus the non-power cross-check."""

    def __init__(self, unmasked: PowerScenarioReport,
                 masked: PowerScenarioReport,
                 attribution: Dict[str, int],
                 protected_ifc_ok: Optional[bool],
                 seed: int,
                 recovery_target: int = CPA_RECOVERY_TARGET):
        self.unmasked = unmasked
        self.masked = masked
        self.attribution = attribution
        self.protected_ifc_ok = protected_ifc_ok
        self.seed = seed
        self.recovery_target = recovery_target

    @property
    def baseline_broken(self) -> bool:
        return (self.unmasked.tvla.flagged
                and self.unmasked.cpa.recovered >= self.recovery_target)

    @property
    def masking_effective(self) -> bool:
        return self.masked.cpa.recovered == 0

    @property
    def ok(self) -> bool:
        return (self.baseline_broken and self.masking_effective
                and self.protected_ifc_ok is not False)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "seed": self.seed,
                "recovery_target": self.recovery_target,
                "baseline_broken": self.baseline_broken,
                "masking_effective": self.masking_effective,
                "protected_ifc_ok": self.protected_ifc_ok,
                "attribution_hd": dict(sorted(self.attribution.items())),
                "unmasked": self.unmasked.to_dict(),
                "masked": self.masked.to_dict()}

    def render(self) -> str:
        lines = ["=" * 70, "power side-channel campaign", "=" * 70,
                 self.unmasked.render(), self.masked.render(), ""]
        if self.attribution:
            total = sum(self.attribution.values()) or 1
            planes = "  ".join(
                f"{g}={hd} ({100 * hd / total:.0f}%)"
                for g, hd in sorted(self.attribution.items()))
            lines.append(f"attribution (protected accel, HD): {planes}")
        if self.protected_ifc_ok is not None:
            lines.append("protected IFC check: "
                         + ("PASS" if self.protected_ifc_ok else "FAIL"))
        if self.ok:
            lines.append(
                f"VERDICT: unmasked round flagged and broken "
                f"({self.unmasked.cpa.recovered}/16 key bytes); first-order "
                f"masking defeats rank-0 recovery at the same budget")
        else:
            lines.append(
                f"VERDICT: UNEXPECTED — baseline_broken="
                f"{self.baseline_broken} "
                f"(recovered={self.unmasked.cpa.recovered}, "
                f"max|t|={self.unmasked.tvla.max_t:.1f}), "
                f"masking_effective={self.masking_effective} "
                f"(recovered={self.masked.cpa.recovered}), "
                f"protected_ifc_ok={self.protected_ifc_ok}")
        return "\n".join(lines)

    def render_md(self) -> str:
        u, m = self.unmasked, self.masked
        rows = [
            "# Power side-channel report",
            "",
            f"Seed {self.seed}; CPA budget {u.cpa.traces} traces; "
            f"gate requires ≥ {self.recovery_target}/16 rank-0 bytes "
            f"unmasked and 0 masked.",
            "",
            "| design | backend | TVLA max·t· | MI (bits) | rank-0 bytes "
            "| traces/s |",
            "|---|---|---|---|---|---|",
        ]
        for r in (u, m):
            rows.append(
                f"| {r.design} | {r.backend} | {r.tvla.max_t:.1f} "
                f"| {r.tvla.mi_bits:.3f} | {r.cpa.recovered}/16 "
                f"| {r.traces_per_second:.0f} |")
        rows += ["", f"Unmasked CPA ranks: {u.cpa.ranks}",
                 f"Masked CPA ranks: {m.cpa.ranks}", ""]
        if self.attribution:
            rows += ["## Attribution (protected accelerator, HD per plane)",
                     ""]
            total = sum(self.attribution.values()) or 1
            rows += ["| plane | HD | share |", "|---|---|---|"]
            for g, hd in sorted(self.attribution.items()):
                rows.append(f"| {g} | {hd} | {100 * hd / total:.1f}% |")
            rows.append("")
        rows.append(f"Protected IFC check: {self.protected_ifc_ok}; "
                    f"overall verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(rows) + "\n"


def collect_attribution(backend: str = "compiled",
                        cycles: int = 60) -> Dict[str, int]:
    """Per-plane HD attribution over a short tag-tracking run of the
    protected accelerator (datapath / key schedule / scratchpad /
    control / shadow-tag plane)."""
    from ..accel.common import CMD_ENCRYPT, LATTICE
    from ..accel.driver import AcceleratorDriver, make_users
    from ..accel.protected import AesAcceleratorProtected

    drv = AcceleratorDriver(AesAcceleratorProtected(), backend=backend,
                            tag_tracking=True, lattice=LATTICE)
    users = make_users()
    u0, u1 = users["u0"], users["u1"]
    with PowerCollector(drv.sim) as col:
        col.start_trace()
        drv.sim.poke(f"{drv.top}.out_ready", 1)
        drv.sim.poke(f"{drv.top}.rd_user", u0)
        drv._idle_inputs()
        drv.allocate_slot(1, u0)
        drv.allocate_slot(2, u1)
        drv.load_key(u0, 1, 0x000102030405060708090A0B0C0D0E0F)
        drv.load_key(u1, 2, 0x0F0E0D0C0B0A09080706050403020100)
        drv.issue(CMD_ENCRYPT, u0, slot=1, data=0x00112233445566778899AABBCCDDEEFF)
        drv.issue(CMD_ENCRYPT, u1, slot=2, data=0xFFEEDDCCBBAA99887766554433221100)
        drv.step(cycles)
    return dict(col.group_hd)


def run_power_campaign(seed: int = 2026,
                       backend: str = "compiled",
                       traces: int = DEFAULT_TRACES,
                       tvla_traces: int = DEFAULT_TVLA_TRACES,
                       lanes: int = 1,
                       check_protected: bool = True,
                       with_attribution: bool = True,
                       ) -> PowerCampaignResult:
    """The paired gate: attack both round-unit variants, same budget."""
    key = _campaign_key(seed)
    # the canonical TVLA fixed class: the all-zero plaintext, whose HD
    # signature sits far from the random-class mean at every point
    fixed = 0

    reports = {}
    for masked in (False, True):
        name = "masked" if masked else "unmasked"
        plains, cpa_traces, wall = collect_power_traces(
            masked=masked, ntraces=traces, seed=seed, backend=backend,
            lanes=lanes, key=key)
        _, fixed_tr, w2 = collect_power_traces(
            masked=masked, ntraces=tvla_traces, seed=seed + 1,
            backend=backend, lanes=lanes, fixed_plain=fixed, key=key)
        _, rand_tr, w3 = collect_power_traces(
            masked=masked, ntraces=tvla_traces, seed=seed + 2,
            backend=backend, lanes=lanes, key=key)
        total = traces + 2 * tvla_traces
        tps = total / (wall + w2 + w3) if wall + w2 + w3 > 0 else 0.0
        reports[name] = PowerScenarioReport(
            name, backend, lanes if backend == "batched" else 1,
            tvla_test(fixed_tr, rand_tr),
            cpa_attack(cpa_traces, plains, key),
            tps, len(cpa_traces[0]))

    attribution: Dict[str, int] = {}
    if with_attribution:
        attribution = collect_attribution(
            backend="compiled" if backend == "batched" else backend)

    ifc_ok: Optional[bool] = None
    if check_protected:
        from ..accel.common import LATTICE
        from ..accel.protected import AesAcceleratorProtected
        from ..hdl.elaborate import elaborate_shallow
        from ..ifc.checker import IfcChecker

        netlist = elaborate_shallow(AesAcceleratorProtected())
        ifc_ok = IfcChecker(netlist, LATTICE,
                            max_hypotheses=1 << 20).check().ok()

    return PowerCampaignResult(reports["unmasked"], reports["masked"],
                               attribution, ifc_ok, seed)


# -- CLI -------------------------------------------------------------------------

def coverage_scenarios():
    """Coverage-observatory registration: which attribution planes the
    power gate's paired campaign exercises (see ``repro.obs.coverage``)."""
    return [
        {"gate": "power", "scenario": "unmasked_round",
         "planes": ["datapath", "key_schedule"]},
        {"gate": "power", "scenario": "masked_round",
         "planes": ["datapath", "key_schedule"]},
        {"gate": "power", "scenario": "attribution",
         "planes": ["datapath", "control", "scratchpad", "key_schedule",
                    "shadow_tags"]},
    ]


def cmd_obs_power(args) -> int:
    """Implementation of ``python -m repro obs power``."""
    from ..gate import gate_epilogue

    backend = args.backend
    lanes = args.lanes
    if backend == "batched" and _np is None:
        print("numpy unavailable; falling back to the compiled backend")
        backend, lanes = "compiled", 1
    traces = DEFAULT_TRACES if args.demo else args.traces
    result = run_power_campaign(
        seed=args.seed, backend=backend, traces=traces,
        tvla_traces=args.tvla_traces, lanes=lanes,
        check_protected=not args.no_ifc_check)
    return gate_epilogue(
        args, ok=result.ok, payload=result.to_dict(), render=result.render,
        artifacts={"power_report.json": result.to_dict(),
                   "power_report.md": result.render_md})
