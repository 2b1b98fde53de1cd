import os

import pytest

from repro.hdl import HdlError, Module, Simulator, lit, mux, when
from repro.hdl.sim.trace import Trace, read_vcd, vcd_ident


class Counter(Module):
    def __init__(self):
        super().__init__("c")
        self.en = self.input("en", 1)
        self.count = self.reg("count", 8)
        with when(self.en):
            self.count <<= self.count + 1


def test_trace_records_per_cycle():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count", "c.en"])
    sim.poke("c.en", 1)
    sim.step(5)
    assert len(tr) == 5
    assert tr.column("c.count") == [0, 1, 2, 3, 4]


def test_trace_at_cycle():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count"])
    sim.poke("c.en", 1)
    sim.step(3)
    assert tr.at(2)["c.count"] == 2


def test_column_of_unrecorded_signal_raises():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count"])
    sim.step(2)
    with pytest.raises(HdlError, match="not recorded"):
        tr.column("c.en")


def test_at_unknown_cycle_raises():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count"])
    sim.step(3)
    with pytest.raises(HdlError, match="recorded cycles: 0..2"):
        tr.at(99)


def test_at_on_empty_trace_raises():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count"])
    with pytest.raises(HdlError, match="<empty>"):
        tr.at(0)


def test_lookups_stay_fast_on_long_traces():
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count", "c.en"])
    sim.poke("c.en", 1)
    sim.step(400)
    # O(1) dict lookups under the hood — spot-check correctness
    assert tr.at(399)["c.count"] == (399 % 256)
    assert tr.column("c.en")[-1] == 1


def test_vcd_output(tmp_path):
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count", "c.en"])
    sim.poke("c.en", 1)
    sim.step(4)
    path = os.path.join(tmp_path, "wave.vcd")
    tr.write_vcd(path)
    with open(path) as f:
        text = f.read()
    assert "$timescale" in text
    assert "$scope module c $end" in text
    assert "$var wire 8 ! count $end" in text
    assert "#0" in text and "#3" in text


def test_vcd_ident_allocation():
    # base-94 over printable ASCII; wraps to multi-char past 94
    assert vcd_ident(0) == "!"
    assert vcd_ident(93) == "~"
    assert vcd_ident(94) == "!\""
    assert len({vcd_ident(n) for n in range(500)}) == 500
    for n in range(500):
        assert all(33 <= ord(c) <= 126 for c in vcd_ident(n))


def test_vcd_round_trip(tmp_path):
    sim = Simulator(Counter())
    tr = Trace(sim, ["c.count", "c.en"])
    sim.poke("c.en", 1)
    sim.step(6)
    path = os.path.join(tmp_path, "rt.vcd")
    tr.write_vcd(path)
    parsed = read_vcd(path)
    assert parsed["timescale"] == "1ns"
    assert parsed["widths"] == {"c.count": 8, "c.en": 1}
    # reconstruct the count column from the value changes
    changes = dict(parsed["changes"]["c.count"])
    rebuilt, cur = [], None
    for cycle in range(6):
        cur = changes.get(cycle, cur)
        rebuilt.append(cur)
    assert rebuilt == tr.column("c.count")
    assert dict(parsed["changes"]["c.en"])[0] == 1


class Nested(Module):
    def __init__(self):
        super().__init__("top")
        self.en = self.input("en", 1)
        self.inner = self.submodule(Counter())
        self.inner.en <<= self.en
        self.total = self.output("total", 8)
        self.total <<= self.inner.count + 1


def test_vcd_hierarchical_scopes(tmp_path):
    sim = Simulator(Nested())
    tr = Trace(sim, ["top.total", "top.c.count"])
    sim.poke("top.en", 1)
    sim.step(3)
    path = os.path.join(tmp_path, "nest.vcd")
    tr.write_vcd(path)
    parsed = read_vcd(path)
    assert parsed["widths"] == {"top.total": 8, "top.c.count": 8}
    text = open(path).read()
    assert "$scope module top $end" in text
    assert "$scope module c $end" in text
    assert text.count("$upscope $end") == 2


def test_trace_on_batched_backend_matches_compiled():
    numpy = pytest.importorskip("numpy")  # noqa: F841
    ref_sim = Simulator(Counter(), backend="compiled")
    ref = Trace(ref_sim, ["c.count", "c.en"])
    ref_sim.poke("c.en", 1)
    ref_sim.step(7)

    sim = Simulator(Counter(), backend="batched", lanes=3)
    tr = Trace(sim, ["c.count", "c.en"])
    sim.poke("c.en", 1)
    sim.step(7)
    assert tr.column("c.count") == ref.column("c.count")
    assert tr.cycles == ref.cycles

    # per-lane capture: lanes run in lockstep here, so lane 2 matches too
    sim2 = Simulator(Counter(), backend="batched", lanes=3)
    tr2 = Trace(sim2, ["c.count"], lane=2)
    sim2.poke("c.en", 1)
    sim2.step(7)
    assert tr2.column("c.count") == ref.column("c.count")


def test_label_annotated_vcd_round_trip(tmp_path):
    from repro.ifc.label import Label
    from repro.ifc.lattice import two_point
    from repro.ifc.tracker import LabelTracker

    TP = two_point()
    S_T = Label(TP, "secret", "trusted")

    class Leaky(Module):
        def __init__(self):
            super().__init__("m")
            self.sel = self.input("sel", 1)
            self.sec = self.input("sec", 8, label=S_T)
            self.out = self.output("out", 8)
            self.out <<= mux(self.sel, self.sec, lit(0, 8))

    sim = Simulator(Leaky())
    tracker = LabelTracker(sim, TP)   # tracker first: labels settle
    tr = Trace(sim, ["m.out", "m.sec"], tracker=tracker)  # then capture
    sim.poke("m.sec", 0x5A)
    sim.step(2)
    sim.poke("m.sel", 1)              # now the secret reaches m.out
    sim.step(2)

    n = len(TP.principals)
    labels = tr.label_column("m.out")
    assert labels[0] is not None and repr(labels[0]) != repr(S_T)
    assert repr(labels[-1]) == repr(S_T)

    path = os.path.join(tmp_path, "labels.vcd")
    tr.write_vcd(path)
    parsed = read_vcd(path)
    assert parsed["widths"]["m.out"] == 8
    assert parsed["widths"]["m.out__conf"] == n
    assert parsed["widths"]["m.out__integ"] == n

    conf = dict(parsed["changes"]["m.out__conf"])
    expect_enc = S_T.encode()
    # at cycle 2 the mux takes the secret branch: conf bits go high
    assert conf[2] == expect_enc >> n
    assert conf[0] != conf[2]

    # labels=False suppresses the overlay entirely
    bare = os.path.join(tmp_path, "bare.vcd")
    tr.write_vcd(bare, labels=False)
    assert "m.out__conf" not in read_vcd(bare)["widths"]


def test_batched_per_lane_trace_diverges_with_faults():
    numpy = pytest.importorskip("numpy")  # noqa: F841
    from repro.faults.plan import Fault, FaultPlan

    plan = FaultPlan([Fault("c.count", "transient", 1, cycle=3, lane=1)])
    sim = Simulator(Counter(), backend="batched", lanes=2,
                    fault_targets=["c.count"], fault_plan=plan)
    t0 = Trace(sim, ["c.count"], lane=0)
    t1 = Trace(sim, ["c.count"], lane=1)
    sim.poke("c.en", 1)
    sim.step(6)
    col0, col1 = t0.column("c.count"), t1.column("c.count")
    assert col0 == [0, 1, 2, 3, 4, 5]
    assert col0 != col1
