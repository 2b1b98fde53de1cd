"""Dynamic tracker on the real hardware idioms: per-slot dependent-label
memories, tagged writes, and a runtime-poked misconfiguration."""

import pytest

from repro.accel.common import LATTICE, user_label
from repro.accel.key_expand_unit import KeyExpandUnit
from repro.accel.output_buffer import OutputBuffer
from repro.hdl.sim import Simulator
from repro.ifc.label import Label
from repro.ifc.tracker import LabelTracker

ALICE = user_label("p0")
EVE = user_label("p1")
ALICE_REL = Label(LATTICE, "public", ("p0",))


class TestKeyExpandDynamics:
    def test_clean_expansion_tracks_clean(self):
        sim = Simulator(KeyExpandUnit(protected=True))
        tracker = LabelTracker(sim, LATTICE)
        sim.poke("keyexp.start", 1)
        sim.poke("keyexp.slot", 1)
        sim.poke("keyexp.key", 0xABCD)
        sim.poke("keyexp.key_tag", ALICE.encode())
        sim.step()
        sim.poke("keyexp.start", 0)
        sim.run_until("keyexp.ready", 1, 50)
        assert tracker.ok(), tracker.summary()
        # the slot RAM's cells now carry Alice's label
        assert tracker.mem_label_of("keyexp.rk_mem_1", 5) == ALICE

    def test_poked_tag_mismatch_is_flagged(self):
        """Backdoor-flip the slot tag mid-expansion: the dependent-label
        memory write turns into a runtime violation (or is guarded away —
        either way no silent mislabel)."""
        sim = Simulator(KeyExpandUnit(protected=True))
        tracker = LabelTracker(sim, LATTICE)
        sim.poke("keyexp.start", 1)
        sim.poke("keyexp.slot", 1)
        sim.poke("keyexp.key", 0xABCD)
        sim.poke("keyexp.key_tag", ALICE.encode())
        sim.step()
        sim.poke("keyexp.start", 0)
        sim.step(2)
        # supervisor-level backdoor: retag slot 1 to Eve mid-flight
        reg = sim.netlist.signal_by_path("keyexp.slot_tag_1")
        sim._args[0][sim._be.state_index[reg]] = EVE.encode()
        sim._dirty = True
        before = [sim.peek_mem("keyexp.rk_mem_1", i) for i in range(11)]
        sim.step(12)
        after = [sim.peek_mem("keyexp.rk_mem_1", i) for i in range(11)]
        # the runtime guard stopped the writes: fail-secure, tracker clean
        assert before == after
        assert tracker.ok()


class TestOutputBufferDynamics:
    def test_tagged_write_uses_incoming_tag(self):
        sim = Simulator(OutputBuffer(protected=True))
        tracker = LabelTracker(sim, LATTICE)
        sim.poke("outbuf.push", 1)
        sim.poke("outbuf.push_tag", ALICE_REL.encode())
        sim.poke("outbuf.push_data", 0x77)
        sim.step()
        sim.poke("outbuf.push", 0)
        assert tracker.ok(), tracker.summary()
        # slot of vouch{p0} is index 0; head of that FIFO is address 0
        assert tracker.mem_label_of("outbuf.dataq", 0) == ALICE_REL

    def test_set_mem_label_override(self):
        sim = Simulator(OutputBuffer(protected=True))
        tracker = LabelTracker(sim, LATTICE)
        tracker.set_mem_label("outbuf.dataq", 3, ALICE)
        assert tracker.mem_label_of("outbuf.dataq", 3) == ALICE
