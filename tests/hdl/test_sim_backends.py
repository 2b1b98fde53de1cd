"""Differential tests: every backend must match the interpreter.

The compiled and batched (lanes=1) backends are each run against the
same stimuli as the reference interpreter; the batched cases skip
cleanly when numpy is unavailable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import Module, Simulator, cat, mux, otherwise, when
from repro.hdl.nodes import HdlError, UnknownMemoryError, UnknownSignalError

BACKENDS = ("compiled", "interp", "batched")


def _make_sim(module, backend):
    if backend == "batched":
        pytest.importorskip("numpy")
    return Simulator(module, backend=backend)


class Alu(Module):
    """A small ALU exercising most node kinds."""

    def __init__(self):
        super().__init__("alu")
        self.op = self.input("op", 3)
        self.a = self.input("a", 16)
        self.b = self.input("b", 16)
        self.acc = self.reg("acc", 16)
        self.res = self.output("res", 16, default=0)

        with when(self.op.eq(0)):
            self.res <<= self.a + self.b
        with elsewhen_(self.op, 1):
            self.res <<= self.a - self.b
        with elsewhen_(self.op, 2):
            self.res <<= self.a & self.b
        with elsewhen_(self.op, 3):
            self.res <<= self.a ^ self.b
        with elsewhen_(self.op, 4):
            self.res <<= mux(self.a.lt(self.b), self.a, self.b)
        with elsewhen_(self.op, 5):
            self.res <<= cat(self.a[7:0], self.b[7:0])
        with otherwise():
            self.res <<= self.acc
        self.acc <<= self.res


def elsewhen_(sig, v):
    from repro.hdl import elsewhen

    return elsewhen(sig.eq(v))


class MemUnit(Module):
    def __init__(self):
        super().__init__("mu")
        self.we = self.input("we", 1)
        self.addr = self.input("addr", 4)
        self.din = self.input("din", 8)
        self.m = self.mem("m", 12, 8)  # non-power-of-two depth
        self.rom = self.rom("rom", [i * 3 % 251 for i in range(16)], 8)
        self.dout = self.output("dout", 8)
        self.romout = self.output("romout", 8)
        self.dout <<= self.m.read(self.addr)
        self.romout <<= self.rom.read(self.addr)
        with when(self.we):
            self.m.write(self.addr, self.din)


def _run_sequence(backend, stimuli):
    sim = _make_sim(Alu(), backend)
    trace = []
    for op, a, b in stimuli:
        sim.poke("alu.op", op)
        sim.poke("alu.a", a)
        sim.poke("alu.b", b)
        trace.append((sim.peek("alu.res"), sim.peek("alu.acc")))
        sim.step()
    return trace


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["compiled", "batched"])
    def test_alu_random_differential(self, backend):
        rng = random.Random(1234)
        stimuli = [
            (rng.randrange(8), rng.getrandbits(16), rng.getrandbits(16))
            for _ in range(200)
        ]
        assert _run_sequence(backend, stimuli) == _run_sequence(
            "interp", stimuli
        )

    @pytest.mark.parametrize("backend", ["compiled", "batched"])
    @settings(max_examples=25, deadline=None)
    @given(stimuli=st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)
        ),
        min_size=1, max_size=20,
    ))
    def test_alu_property_differential(self, backend, stimuli):
        assert _run_sequence(backend, stimuli) == _run_sequence(
            "interp", stimuli
        )

    def test_memory_differential(self):
        rng = random.Random(99)
        sims = {b: _make_sim(MemUnit(), b) for b in BACKENDS}
        for _ in range(100):
            we, addr, din = rng.randrange(2), rng.randrange(16), rng.getrandbits(8)
            outs = {}
            for b, sim in sims.items():
                sim.poke("mu.we", we)
                sim.poke("mu.addr", addr)
                sim.poke("mu.din", din)
                outs[b] = (sim.peek("mu.dout"), sim.peek("mu.romout"))
                sim.step()
            assert outs["compiled"] == outs["interp"] == outs["batched"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_out_of_range_mem_read_is_zero(self, backend):
        sim = _make_sim(MemUnit(), backend)
        sim.poke("mu.addr", 14)  # beyond depth 12
        assert sim.peek("mu.dout") == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_out_of_range_mem_write_dropped(self, backend):
        sim = _make_sim(MemUnit(), backend)
        sim.poke("mu.we", 1)
        sim.poke("mu.addr", 15)
        sim.poke("mu.din", 0xAA)
        sim.step()  # must not raise
        assert all(
            sim.peek_mem("mu.m", i) == 0 for i in range(12)
        )


class TestSimulatorApi:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poke_rejects_oversize(self, backend):
        sim = _make_sim(MemUnit(), backend)
        with pytest.raises(ValueError):
            sim.poke("mu.din", 256)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poke_non_input_rejected(self, backend):
        from repro.hdl import HdlError

        sim = _make_sim(MemUnit(), backend)
        with pytest.raises(HdlError):
            sim.poke("mu.dout", 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mem_backdoor_rejects_out_of_range_address(self, backend):
        # a negative address used to alias the top entry (list indexing)
        sim = _make_sim(MemUnit(), backend)
        for addr in (-1, 12):
            with pytest.raises(IndexError):
                sim.poke_mem("mu.m", addr, 1)
            with pytest.raises(IndexError):
                sim.peek_mem("mu.m", addr)
        assert sim.peek_mem("mu.m", 11) == 0

    def test_lanes_require_batched_backend(self):
        with pytest.raises(ValueError):
            Simulator(MemUnit(), backend="compiled", lanes=4)

    def test_reset(self):
        sim = Simulator(MemUnit())
        sim.poke("mu.we", 1)
        sim.poke("mu.addr", 3)
        sim.poke("mu.din", 55)
        sim.step()
        assert sim.peek_mem("mu.m", 3) == 55
        sim.reset()
        assert sim.peek_mem("mu.m", 3) == 0
        assert sim.cycle == 0

    def test_poke_mem_backdoor(self):
        sim = Simulator(MemUnit())
        sim.poke_mem("mu.m", 5, 0x7E)
        sim.poke("mu.addr", 5)
        assert sim.peek("mu.dout") == 0x7E

    def test_run_until_timeout(self):
        sim = Simulator(MemUnit())
        with pytest.raises(TimeoutError):
            sim.run_until("mu.dout", 1, max_cycles=5)

    def test_unknown_signal(self):
        sim = Simulator(MemUnit())
        # UnknownSignalError subclasses both HdlError and KeyError, names
        # the missing path and the scope searched, and str() must be the
        # plain message (KeyError's repr-quoting would mangle it)
        with pytest.raises(HdlError, match=r"mu\.nope"):
            sim.peek("mu.nope")
        with pytest.raises(KeyError):
            sim.peek("mu.nope")
        with pytest.raises(UnknownSignalError) as exc:
            sim.poke("mu.nope", 1)
        assert "mu.nope" in str(exc.value)
        assert "netlist of module" in str(exc.value)
        assert not str(exc.value).startswith("'")

    def test_unknown_memory(self):
        sim = Simulator(MemUnit())
        with pytest.raises(UnknownMemoryError, match=r"mu\.nomem"):
            sim.peek_mem("mu.nomem", 0)
        with pytest.raises(KeyError):
            sim.poke_mem("mu.nomem", 0, 1)
