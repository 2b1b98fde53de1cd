"""The benchmark's three workloads, driven through the public APIs.

Each workload builds its inputs from the seed alone; the program only ever
sees the generated inputs.  A workload has a cold ``setup()`` (the caches
of generated simulator code are cleared first, so every set-up pays the
full build), and a ``run()`` that performs *ops* until a host-time window
closes or a fixed op count is reached.  Outputs are recorded inside the
window and checked against the pure-Python reference AES (``repro.aes``)
only after the window closes: the reference model is slow enough that
checking inline would distort every timing.  See ``README.md`` for why
each workload exists and how its loop is shaped.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.accel.common import (
    CMD_CONFIG,
    CMD_DECRYPT,
    CMD_ENCRYPT,
    CMD_LOAD_KEY,
    LATTICE,
    supervisor_label,
    user_label,
)
from repro.accel.driver import AcceleratorDriver
from repro.accel.protected import AesAcceleratorProtected
from repro.aes import (
    add_round_key,
    block_to_state,
    encrypt_block,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    state_to_block,
    sub_bytes,
)
from repro.hdl.sim.batched import BatchSimulator, clear_batch_cache
from repro.hdl.sim.compiler import clear_compile_cache
from repro.soc.chaos import ChaosSchedule
from repro.soc.fleet import AcceleratorFleet, FleetConfig, FleetReport
from repro.soc.traffic import default_tenants, generate_trace

MASK64 = (1 << 64) - 1


class ReferenceAes:
    """``repro.aes`` with the key schedule expanded once per key.

    Same round sequence as :func:`repro.aes.encrypt_block` and
    ``decrypt_block``; the constructor cross-checks one block against
    them so a slip here cannot pass wrong ciphertexts.
    """

    def __init__(self, key: int):
        self.rk = expand_key(key)
        if self.encrypt(key) != encrypt_block(key, key):
            raise AssertionError("reference AES disagrees with repro.aes")

    def encrypt(self, block: int) -> int:
        rk = self.rk
        state = add_round_key(block_to_state(block), rk[0])
        for r in range(1, 10):
            state = add_round_key(
                mix_columns(shift_rows(sub_bytes(state))), rk[r])
        return state_to_block(
            add_round_key(shift_rows(sub_bytes(state)), rk[10]))

    def decrypt(self, block: int) -> int:
        rk = self.rk
        state = add_round_key(block_to_state(block), rk[10])
        for r in range(9, 0, -1):
            state = inv_mix_columns(
                add_round_key(inv_sub_bytes(inv_shift_rows(state)), rk[r]))
        return state_to_block(
            add_round_key(inv_sub_bytes(inv_shift_rows(state)), rk[0]))


def clear_code_caches() -> None:
    clear_compile_cache()
    clear_batch_cache()


class RunResult:
    """What one pass of a workload did, measured and recorded."""

    def __init__(self):
        self.op_s: List[float] = []       # host seconds per op
        self.window_s = 0.0               # host seconds of the timed window
        self.ops_failed = 0               # ops with a refused/lost/wrong output
        self.offered = 0                  # blocks/requests offered
        self.verified = 0                 # blocks/requests delivered and correct
        self.problems: List[str] = []     # failed output checks, for the report
        self.sim_cycles = 0               # every simulated cycle in the window
        #: simulated statistics over the first ``sim_ops`` ops only, so a
        #: host-speed change cannot move them
        self.sim_prefix_cycles = 0
        self.sim_prefix_blocks = 0
        self.sim_latencies: List[int] = []
        self.sim_ops = 0
        self.digest_items: List[bytes] = []   # one per op, in op order
        self.extra: Dict[str, object] = {}

    @property
    def ops(self) -> int:
        return len(self.op_s)

    def digest(self, ops: Optional[int] = None) -> str:
        h = hashlib.sha256()
        for item in self.digest_items[:ops]:
            h.update(item)
        return h.hexdigest()[:24]


def _item(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _expire(deadline: Optional[float], ops: Optional[int], done: int) -> bool:
    if ops is not None:
        return done >= ops
    return perf_counter() >= deadline


# ---------------------------------------------------------------------------
# driver-closed
# ---------------------------------------------------------------------------

class DriverClosed:
    """One protected accelerator behind ``AcceleratorDriver``; one client,
    closed loop: a job is a message of 1-16 blocks (3:1 encrypt:decrypt)
    for the next of three users; the client reads all of the job's
    responses before it sends the next job."""

    name = "driver-closed"
    op_unit = "jobs"
    fleet = False
    #: a cold set-up takes about 0.3 s, short enough for host noise to
    #: move any single one by a quarter
    setup_reps = 9
    tail_pct = 95
    #: simulated statistics cover this many jobs, the printed digest fewer
    #: so that every run, the shorter traced one too, reaches it
    sim_ops = 256
    digest_ops = 128
    #: a job whose responses take longer than this is a failed job
    job_cycle_limit = 400
    #: self-test of the output check: flip one output bit before checking
    corrupt = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"driver-closed/keys/{seed}")
        self.users = [(user_label(f"p{i}").encode(), i + 1,
                       rng.getrandbits(128)) for i in range(3)]

    def setup(self):
        clear_code_caches()
        drv = AcceleratorDriver(AesAcceleratorProtected(), backend="compiled")
        for tag, slot, key in self.users:
            drv.allocate_slot(slot, tag)
            drv.load_key(tag, slot, key)
        return drv

    def run(self, drv, seconds: Optional[float] = None,
            ops: Optional[int] = None, speed=None) -> RunResult:
        res = RunResult()
        rng = random.Random(f"driver-closed/jobs/{self.seed}")
        jobs = []
        users = self.users
        sim = drv.sim
        c0 = sim.cycle
        prefix_cycle = None
        cal_s = 0.0   # host seconds of reference-loop slices in the window
        t_start = perf_counter()
        deadline = t_start + seconds if seconds is not None else None
        while not _expire(deadline, ops, len(jobs)):
            u = len(jobs) % len(users)
            tag, slot, _key = users[u]
            blocks = [(CMD_ENCRYPT if rng.random() < 0.75 else CMD_DECRYPT,
                       rng.getrandbits(128))
                      for _ in range(rng.randint(1, 16))]
            t0 = perf_counter()
            drv.set_reader(tag)
            issued = []
            for cmd, data in blocks:
                drv.issue(cmd, tag, slot=slot, data=data)
                issued.append(sim.cycle - 1)
            waited = 0
            while (len(drv.responses) < len(blocks)
                   and waited < self.job_cycle_limit):
                drv.step()
                waited += 1
            resps = drv.take_responses()
            res.op_s.append(perf_counter() - t0)
            jobs.append((u, blocks, issued, resps))
            if len(jobs) == self.sim_ops:
                prefix_cycle = sim.cycle
            if speed is not None:
                cal_s += speed.tick()
        res.window_s = perf_counter() - t_start - cal_s
        res.sim_cycles = sim.cycle - c0
        res.sim_ops = min(len(jobs), self.sim_ops)
        res.sim_prefix_cycles = (prefix_cycle if prefix_cycle is not None
                                 else sim.cycle) - c0

        if self.corrupt and jobs and jobs[0][3]:
            jobs[0][3][0].data ^= 1
        refs = [ReferenceAes(key) for _tag, _slot, key in users]
        for j, (u, blocks, issued, resps) in enumerate(jobs):
            ok = len(resps) == len(blocks)
            if not ok:
                res.problems.append(
                    f"job {j}: {len(resps)} of {len(blocks)} responses")
            for k, ((cmd, data), resp) in enumerate(zip(blocks, resps)):
                want = (refs[u].encrypt(data) if cmd == CMD_ENCRYPT
                        else refs[u].decrypt(data))
                if resp.data != want:
                    ok = False
                    res.problems.append(f"job {j} block {k}: wrong output")
                else:
                    res.verified += 1
            res.offered += len(blocks)
            res.ops_failed += not ok
            if j < self.sim_ops:
                res.sim_prefix_blocks += len(blocks)
                res.sim_latencies += [r.cycle - c for c, r in
                                      zip(issued, resps)]
            res.digest_items.append(_item(
                [[r.cycle, r.tag, r.data] for r in resps]))
        return res


# ---------------------------------------------------------------------------
# lanes-tagged
# ---------------------------------------------------------------------------

class LanesTagged:
    """A 64-lane ``BatchSimulator`` of the protected accelerator with
    synthesized shadow tags; every lane streams its own user's plaintexts
    under its own key, one block per cycle, in lockstep."""

    name = "lanes-tagged"
    op_unit = "batched cycles"
    fleet = False
    setup_reps = 3
    tail_pct = 90
    lanes = 64
    sim_ops = 128
    digest_ops = 64
    #: a block not out this many cycles after issue counts as lost
    latency_limit = 64
    corrupt = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"lanes-tagged/keys/{seed}")
        self.tags = [user_label(f"p{i % 3}").encode()
                     for i in range(self.lanes)]
        self.slots = [i % 3 + 1 for i in range(self.lanes)]
        self.keys = [rng.getrandbits(128) for _ in range(self.lanes)]

    def _command(self, sim, cmd, user, **fields) -> None:
        sim.poke_all("aes.in_valid", 1)
        sim.poke_all("aes.in_cmd", cmd)
        sim.poke_all("aes.in_user", user)
        for name in ("slot", "word", "addr", "data"):
            sim.poke_all(f"aes.in_{name}", fields.get(name, 0))
        if not all(sim.peek_all("aes.in_ready")):
            raise RuntimeError("accelerator refused a provisioning command")
        sim.step()

    def setup(self):
        clear_code_caches()
        sim = BatchSimulator(AesAcceleratorProtected(), lanes=self.lanes,
                             tag_tracking=True, lattice=LATTICE,
                             tag_audit="sticky")
        sim.poke_all("aes.out_ready", 1)
        sim.poke_all("aes.rd_user", self.tags)
        sup = supervisor_label().encode()
        for cell in (0, 1):
            self._command(sim, CMD_CONFIG, sup,
                          addr=[8 + 2 * s + cell for s in self.slots],
                          data=self.tags)
        for word, part in ((0, lambda k: k >> 64), (1, lambda k: k & MASK64)):
            self._command(sim, CMD_LOAD_KEY, self.tags, slot=self.slots,
                          word=word, data=[part(k) for k in self.keys])
        sim.poke_all("aes.in_valid", 0)
        for _ in range(64):
            sim.step()
            if not any(sim.peek_all("aes.pipe.kx_busy")):
                break
        else:
            raise RuntimeError("key expansion did not finish")
        # from here on every lane streams encrypt commands
        sim.poke_all("aes.in_valid", 1)
        sim.poke_all("aes.in_cmd", CMD_ENCRYPT)
        sim.poke_all("aes.in_user", self.tags)
        sim.poke_all("aes.in_slot", self.slots)
        return sim

    def run(self, sim, seconds: Optional[float] = None,
            ops: Optional[int] = None, speed=None) -> RunResult:
        res = RunResult()
        lanes = self.lanes
        rng = random.Random(f"lanes-tagged/blocks/{self.seed}")
        rows = []
        c0 = sim.cycle
        cal_s = 0.0
        t_start = perf_counter()
        deadline = t_start + seconds if seconds is not None else None
        while not _expire(deadline, ops, len(rows)):
            pts = [rng.getrandbits(128) for _ in range(lanes)]
            t0 = perf_counter()
            sim.poke_all("aes.in_data", pts)
            ready = sim.peek_all("aes.in_ready")
            valid = sim.peek_all("aes.out_valid")
            tag = sim.peek_all("aes.out_tag")
            data = sim.peek_all("aes.out_data")
            sim.step()
            res.op_s.append(perf_counter() - t0)
            rows.append((pts, ready, valid, tag, data))
            if speed is not None:
                cal_s += speed.tick()
        res.window_s = perf_counter() - t_start - cal_s
        steps = len(rows)
        res.sim_cycles = steps * lanes
        res.sim_ops = min(steps, self.sim_ops)
        res.sim_prefix_cycles = res.sim_ops * lanes
        violations = [(lane, v.site.path) for lane in range(lanes)
                      for v in sim.tags.violations(lane)]
        for lane, path in violations:
            res.problems.append(f"lane {lane}: tag violation at {path}")

        # per lane: blocks issued (cycle, plaintext) and delivered, in order
        issued = [[] for _ in range(lanes)]
        out = [[] for _ in range(lanes)]
        bad_steps = set()
        for i, (pts, ready, valid, tag, data) in enumerate(rows):
            cycle = c0 + i
            for lane in range(lanes):
                if ready[lane]:
                    issued[lane].append((cycle, pts[lane]))
                else:
                    bad_steps.add(i)
                    res.problems.append(f"lane {lane}: refused at {cycle}")
                if valid[lane]:
                    ct = data[lane]
                    if self.corrupt and not any(out):
                        ct ^= 1
                    out[lane].append((cycle, tag[lane], ct))
            res.digest_items.append(_item([valid, tag, data]))
        res.offered = steps * lanes
        end = c0 + steps
        for lane in range(lanes):
            ref = ReferenceAes(self.keys[lane])
            for k, (ci, pt) in enumerate(issued[lane]):
                if k >= len(out[lane]):
                    if end - ci > self.latency_limit:
                        bad_steps.add(ci - c0)
                        res.problems.append(f"lane {lane}: block lost")
                    else:
                        res.offered -= 1   # still in flight at the end
                    continue
                co, _tag, ct = out[lane][k]
                if ct != ref.encrypt(pt):
                    bad_steps.add(ci - c0)
                    res.problems.append(f"lane {lane}: wrong output at {co}")
                    continue
                res.verified += 1
                if ci - c0 < self.sim_ops:
                    res.sim_latencies.append(co - ci)
                if co - c0 < self.sim_ops:
                    res.sim_prefix_blocks += 1
        res.ops_failed = len(bad_steps)
        return res


# ---------------------------------------------------------------------------
# fleet workloads
# ---------------------------------------------------------------------------

class EpisodeAborted(Exception):
    """The fleet burned more spin cycles than an episode may spend."""


class _MeasuredFleet(AcceleratorFleet):
    """The fleet supervisor, observed at two boundaries it already has.

    ``_watchdog`` runs exactly once per supervisor round, so the host
    time between consecutive calls is one round (the op).  ``_apply_reply``
    sees every shard's cycle counter, which gives the simulated shard
    cycles and the cycles a shard spent beyond its round budget (a worker
    spinning on a stalled or wedged pipeline).  Past ``spin_budget`` such cycles the
    episode is aborted; the budget is in simulated cycles, so whether an
    episode aborts is a function of the seed, not of the host.
    """

    spin_budget = 1 << 15

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.t_run = perf_counter()
        self.round_marks: List[float] = []
        self.shard_cycles = 0
        self.spin_cycles = 0
        self._last_cycle: Dict[Tuple[int, int], int] = {}

    def _watchdog(self, rnd: int, fleet_cycle: int) -> None:
        self.round_marks.append(perf_counter())
        super()._watchdog(rnd, fleet_cycle)

    def _apply_reply(self, slot, reply: dict, rnd: int) -> None:
        key = (slot.index, slot.epoch)
        cycle = reply["stats"]["cycle"]
        used = cycle - self._last_cycle.get(key, 0)
        self._last_cycle[key] = cycle
        self.shard_cycles += used
        self.spin_cycles += max(0, used - self.cfg.cycles_per_round)
        super()._apply_reply(slot, reply, rnd)
        if self.spin_cycles > self.spin_budget:
            raise EpisodeAborted(f"{self.spin_cycles} spin cycles")


class FleetChaos:
    """``AcceleratorFleet`` with two shards serving eight default tenants
    on six seats; each episode replays a seeded open-loop Pareto trace in
    simulated time with one seeded worker kill and one pipeline wedge."""

    name = "fleet-chaos"
    op_unit = "supervisor rounds"
    fleet = True
    tail_pct = 90
    shards = 2
    tenants = 8
    #: fleet cycles of traffic per episode
    horizon = 2048
    #: episodes per second of ``--seconds`` (calibrated so a run takes
    #: about ``--seconds`` of host time on a 2-core host)
    episodes_per_second = 0.4
    #: episodes the printed digest covers; a traced run serves as many on
    #: process workers to check them against its inline workers
    digest_ops = 2
    #: host seconds of reference-loop slices after each episode
    calibrate_s = 0.1
    corrupt = False

    kills = 1
    wedges = 1
    #: whether the trace's adversarial tenant polls slowly
    adversary = True

    def __init__(self, seed: int):
        self.seed = seed

    def episodes(self, seconds: float) -> int:
        return max(1, round(seconds * self.episodes_per_second))

    def episode_seed(self, e: int) -> int:
        digest = hashlib.sha256(f"{self.name}/{self.seed}/{e}".encode())
        return int.from_bytes(digest.digest()[:4], "big")

    def run_episode(self, e: int, workers: str) -> dict:
        """Serve one episode; returns its outcome (no timing inside)."""
        seed = self.episode_seed(e)
        cfg = FleetConfig(shards=self.shards, workers=workers)
        specs = default_tenants(self.tenants, seed=seed)
        for spec in specs:
            spec.adversarial &= self.adversary
        keys = {t.name: t.key for t in specs}
        trace = generate_trace(specs, self.horizon, seed=seed)
        rounds = -(-self.horizon // cfg.cycles_per_round)
        chaos = ChaosSchedule.seeded(seed, rounds, self.shards,
                                     kills=self.kills, wedges=self.wedges)
        fleet = _MeasuredFleet(cfg, specs, seed=seed)
        aborted = None
        try:
            fleet.run(trace, chaos)
        except EpisodeAborted as exc:
            aborted = str(exc)
            for slot in fleet.slots:
                if slot.host is not None:
                    slot.host.terminate()
        t_end = perf_counter()
        report = FleetReport(fleet, trace, chaos).to_dict()
        report["config"].pop("workers")   # host placement, not behaviour
        return {"fleet": fleet, "keys": keys, "report": report,
                "aborted": aborted, "t_end": t_end}

    def run(self, episodes: int, workers: str = "process",
            speed=None) -> RunResult:
        res = RunResult()
        outcomes = []
        setups = []
        for e in range(episodes):
            o = self.run_episode(e, workers)
            if speed is not None:
                # between episodes, outside every timed interval: an
                # episode cannot be paused for slices inside its rounds
                speed.calibrate(self.calibrate_s)
            fleet = o["fleet"]
            marks = fleet.round_marks
            # bring-up: placement and the initial spawns, before round 0
            setups.append((marks[0] if marks else o["t_end"]) - fleet.t_run)
            if marks:
                res.window_s += o["t_end"] - marks[0]
                res.op_s += [b - a for a, b in zip(marks, marks[1:])]
            outcomes.append(o)
        res.extra["setup_s"] = setups

        for e, o in enumerate(outcomes):
            fleet, report = o["fleet"], o["report"]
            if o["aborted"] is not None:
                res.problems.append(f"episode {e} aborted: {o['aborted']}")
                res.ops_failed += fleet.rounds_run
            elif not report["conservation_ok"]:
                res.problems.append(f"episode {e}: conservation violated")
            if fleet.cross_user_total:
                res.problems.append(
                    f"episode {e}: {fleet.cross_user_total} cross-user "
                    "deliveries")
            for req in fleet.requests:
                res.offered += 1
                if req.status != "delivered":
                    continue
                if self.corrupt and res.verified == 0:
                    req.result ^= 1
                want = encrypt_block(req.data, o["keys"][req.tenant])
                if req.result != want or req.verified is not True:
                    res.problems.append(
                        f"episode {e} request {req.id}: wrong output")
                    continue
                res.verified += 1
                res.sim_latencies.append(req.latency)
            res.sim_cycles += fleet.shard_cycles
            res.digest_items.append(_item([
                report,
                [[r.id, r.status, r.delivered_cycle, r.result]
                 for r in fleet.requests]]))
        # every episode is fixed work, so the simulated statistics cover all
        res.sim_ops = episodes
        res.sim_prefix_cycles = res.sim_cycles
        res.sim_prefix_blocks = res.verified
        res.extra["rounds"] = sum(o["fleet"].rounds_run for o in outcomes)
        res.extra["outcomes"] = outcomes
        return res


class FleetSteady(FleetChaos):
    """The serving layers of ``fleet-chaos`` on the paths that work today:
    six tenants on six seats (no re-seating), every tenant draining its
    output, and no chaos events."""

    name = "fleet-steady"
    tenants = 6
    kills = 0
    wedges = 0
    adversary = False
    horizon = 4096
    episodes_per_second = 0.3
