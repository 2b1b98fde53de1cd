"""Telemetry overhead guard.

The entire observability layer rides on one module-global read: when no
:class:`~repro.obs.Telemetry` is active, instrumented hot paths reduce
to a ``None`` check.  This benchmark holds that promise to a number —
with telemetry *disabled*, per-cycle stepping through the instrumented
:class:`~repro.hdl.sim.Simulator` wrapper must stay within 3 % of
driving the batched backend's inner step loop directly (the pre-telemetry
fast path).
"""

import os
import time

import pytest
from conftest import report

import repro.obs as obs
from repro.accel.common import CMD_ENCRYPT, user_label
from repro.accel.protected import AesAcceleratorProtected
from repro.hdl.elaborate import elaborate
from repro.hdl.sim import Simulator

CYCLES = 100
LANES = 64
ROUNDS = 8
MAX_OVERHEAD = 0.03  # disabled telemetry may cost at most 3 %


def _make_sim(netlist) -> Simulator:
    sim = Simulator(netlist, backend="batched", lanes=LANES)
    sim.poke("aes.in_valid", 1)
    sim.poke("aes.in_cmd", CMD_ENCRYPT)
    sim.poke("aes.in_user", user_label("p0").encode())
    sim.poke("aes.in_slot", 1)
    sim.poke("aes.in_data", 0x1234)
    sim.poke("aes.out_ready", 1)
    return sim


def _best_of_interleaved(a, b, rounds: int = ROUNDS):
    """Best-of-N for two paths, alternating every round so slow clock
    drift (thermal, noisy CI neighbours) hits both paths equally."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_disabled_telemetry_overhead():
    """Instrumented wrapper vs raw inner loop, telemetry off."""
    pytest.importorskip("numpy")
    assert obs.telemetry() is None, "telemetry must be disabled for this guard"

    netlist = elaborate(AesAcceleratorProtected())
    sim = _make_sim(netlist)
    inner = sim._be

    # per-cycle calls, the SoC harness's access pattern (tick -> step(1))
    def wrapped():
        for _ in range(CYCLES):
            sim.step(1)

    def raw():
        for _ in range(CYCLES):
            inner.step(*sim._args)

    wrapped()  # warm both paths once
    raw()
    t_wrapped, t_raw = _best_of_interleaved(wrapped, raw)
    overhead = t_wrapped / t_raw - 1.0

    report(
        "Telemetry-disabled overhead guard",
        f"instrumented Simulator.step : {CYCLES / t_wrapped:10.0f} cycles/s\n"
        f"raw batched inner loop      : {CYCLES / t_raw:10.0f} cycles/s\n"
        f"overhead                    : {overhead * 100:+.2f}% "
        f"(ceiling {MAX_OVERHEAD * 100:.0f}%)",
    )
    if overhead > MAX_OVERHEAD and os.environ.get("CI"):
        pytest.xfail(f"{overhead * 100:.2f}% on a shared CI runner "
                     "(timing floors are only enforced locally)")
    assert overhead <= MAX_OVERHEAD, (
        f"disabled-telemetry wrapper costs {overhead * 100:.2f}% "
        f"(> {MAX_OVERHEAD * 100:.0f}%) over the raw batched step loop"
    )
