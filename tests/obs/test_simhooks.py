"""Uniform simulator telemetry: cache stats, SimStats, lane utilization."""

import pytest

import repro.obs as obs
from repro.accel.mini import MiniTaggedPipeline
from repro.hdl import BatchSimulator, Simulator, elaborate
from repro.obs import MetricsRegistry
from repro.obs.simhooks import (
    clear_compile_caches,
    compile_cache_stats,
    lane_utilization,
    publish_sim_metrics,
    sim_stats,
)

numpy = pytest.importorskip("numpy")


class TestCompileCacheStats:
    def test_every_backend_reports_the_same_fields(self):
        stats = compile_cache_stats()
        assert set(stats) == {"interp", "compiled", "batched"}
        for backend, fields in stats.items():
            assert set(fields) == {"entries", "hits", "misses"}, backend

    def test_clear_resets_both_codegen_caches(self):
        nl = elaborate(MiniTaggedPipeline())
        Simulator(nl, backend="compiled")
        Simulator(nl, backend="batched", lanes=2)
        assert compile_cache_stats()["compiled"]["entries"] >= 1
        assert compile_cache_stats()["batched"]["entries"] >= 1
        clear_compile_caches()
        for backend in ("compiled", "batched"):
            assert compile_cache_stats()[backend] == {
                "entries": 0, "hits": 0, "misses": 0}

    def test_hits_and_misses_accumulate(self):
        clear_compile_caches()
        Simulator(elaborate(MiniTaggedPipeline()), backend="compiled")
        Simulator(elaborate(MiniTaggedPipeline()), backend="compiled")
        stats = compile_cache_stats()["compiled"]
        assert stats == {"entries": 1, "hits": 1, "misses": 1}

    def test_interp_backend_reports_zeros(self):
        Simulator(elaborate(MiniTaggedPipeline()), backend="interp")
        assert compile_cache_stats()["interp"] == {
            "entries": 0, "hits": 0, "misses": 0}


class TestSimStats:
    def test_stats_accumulate_only_while_enabled(self):
        sim = Simulator(MiniTaggedPipeline(), backend="compiled")
        sim.step(10)
        assert sim.stats.timed_cycles == 0  # telemetry off: clock untouched
        with obs.capture():
            sim.step(7)
        assert sim.stats.timed_cycles == 7
        assert sim.stats.step_calls == 1
        assert sim.stats.wall_seconds > 0
        assert sim.stats.cycles_per_second() > 0
        assert sim.cycle == 17

    def test_sim_stats_dict(self):
        sim = Simulator(MiniTaggedPipeline(), backend="compiled")
        with obs.capture():
            sim.step(5)
        info = sim_stats(sim)
        assert info["backend"] == "compiled"
        assert info["lanes"] == 1
        assert info["cycles"] == 5
        assert info["timed_cycles"] == 5
        assert info["lane_cycles_per_second"] == info["cycles_per_second"]


class TestLaneUtilization:
    def test_batched_fraction(self):
        sim = Simulator(MiniTaggedPipeline(), backend="batched", lanes=4)
        sig = next(iter(sim.netlist.inputs))
        for lane in range(4):
            sim.poke(sig, 1 if lane < 3 else 0, lane=lane)
        assert lane_utilization(sim, sig) == 0.75

    def test_scalar_backend_has_no_lane_axis(self):
        sim = Simulator(MiniTaggedPipeline(), backend="compiled")
        sig = next(iter(sim.netlist.inputs))
        assert lane_utilization(sim, sig) is None


class TestPublishSimMetrics:
    @pytest.mark.parametrize("backend,lanes,standalone",
                             [("interp", 1, False), ("compiled", 1, False),
                              ("batched", 4, False), ("batched", 4, True)])
    def test_identical_metric_surface_across_backends(self, backend, lanes,
                                                      standalone):
        if standalone:
            sim = BatchSimulator(MiniTaggedPipeline(), lanes=lanes)
        else:
            sim = Simulator(MiniTaggedPipeline(), backend=backend,
                            lanes=lanes)
        with obs.capture():
            sim.step(3)
        reg = MetricsRegistry()
        publish_sim_metrics(sim, reg)
        snap = reg.snapshot()
        expected = {
            "repro_sim_cycles_total",
            "repro_sim_wall_seconds",
            "repro_sim_cycles_per_second",
            "repro_sim_lane_cycles_per_second",
            "repro_sim_compile_cache_entries",
            "repro_sim_compile_cache_hits",
            "repro_sim_compile_cache_misses",
        }
        assert expected <= set(snap)
        labels = f'{{backend="{backend}",lanes="{lanes}"}}'
        assert snap["repro_sim_cycles_total"][labels] == 3
        # cache gauges carry all three backends regardless of which ran
        assert set(snap["repro_sim_compile_cache_entries"]) == {
            '{backend="interp"}', '{backend="compiled"}',
            '{backend="batched"}'}

    def test_lane_utilization_gauge(self):
        sim = Simulator(MiniTaggedPipeline(), backend="batched", lanes=2)
        sig = next(iter(sim.netlist.inputs))
        sim.poke(sig, 1, lane=0)
        reg = MetricsRegistry()
        publish_sim_metrics(sim, reg, active_signal=sig)
        g = reg.get("sim_lane_utilization")
        assert g.value(backend="batched", lanes="2") == 0.5
