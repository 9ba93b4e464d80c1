"""The three benchmark workloads.

Each workload builds its program state in :meth:`setup` (timed as
``setup_s``), does its own verification preparation in :meth:`prepare`
(untimed), and then runs a deterministic sequence of short ops through
:meth:`drive`.  Every op's output is checked by :meth:`check`; the
per-op counts the traced run reports come from :meth:`counts`, read off
public attributes only.

Ops are addressed by index, so op ``i`` of a seed is the same work in
every run: the timed loop, the traced loop and the fingerprint self-test
all see identical inputs.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np


#: Prefix of a check failure where the program returned a wrong answer
#: as if it were right (as opposed to reporting its own failure).
WRONG = "wrong answer: "


class Stop(Exception):
    """Raised from a drive hook to end the op loop early."""


def _loop(workload, start, hook):
    """Plain op loop for workloads whose ops are direct calls."""
    i = start
    while True:
        hook.before(i)
        try:
            result, error = workload.op(i), None
        except Exception as exc:  # counted as a failed op, never fatal
            result, error = None, exc
        if not hook.after(i, result, error):
            return
        i += 1


# -- oracle_sweep ---------------------------------------------------------------------


class OracleSweep:
    """``RecoveryOracle.check`` per op, schedules from the storage-aware fuzzer."""

    name = "oracle_sweep"
    #: Ops ``sim_goodput`` covers: one full rotation of the seven
    #: schedule shapes, each against the six strategies.
    goodput_window = 42
    #: A run makes ``ops_per_second`` ops per second of ``--seconds``,
    #: rounded to whole blocks: here whole rotations.
    block = 42
    ops_per_second = 2.5
    #: Ops the traced run's per-op counts and fingerprint cover.
    window = 12
    scrape_interval = 0.5
    #: Op ``i`` is a pure function of ``i``: the loop may run it again.
    replayable = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.oracle import RecoveryOracle

        class CapturingOracle(RecoveryOracle):
            """Keeps the last :class:`StrategyRun` for the traced counts."""

            last_run = None

            def run(self, schedule, strategy):
                self.last_run = super().run(schedule, strategy)
                return self.last_run

        oracle = CapturingOracle()
        for strategy in oracle.strategies:
            oracle.golden(strategy)
            oracle.golden_tracer(strategy)
        self.oracle = oracle
        self.strategies = oracle.strategies
        self.fuzzer = oracle.fuzzer(self.seed, include_storage=True)
        self.schedules = []
        self.registry = None

    def prepare(self) -> None:
        self.between(0)
        self.op(0)            # warm-up op

    def _schedule(self, i: int):
        index = i // len(self.strategies)
        while len(self.schedules) <= index:
            self.schedules.append(self.fuzzer.draw())
        return self.schedules[index]

    def between(self, i: int) -> None:
        self._schedule(i)

    def op(self, i: int):
        from repro.obs import metrics

        schedule = self._schedule(i)
        strategy = self.strategies[i % len(self.strategies)]
        with metrics.collecting(scrape_interval=self.scrape_interval) as reg:
            verdict = self.oracle.check(schedule, strategy)
        self.registry = reg
        return verdict

    def drive(self, start: int, hook) -> None:
        _loop(self, start, hook)

    def op_id(self, i: int) -> str:
        schedule = self._schedule(i)
        strategy = self.strategies[i % len(self.strategies)]
        return f"{strategy}:{schedule.shape}#{schedule.seed}"

    def check(self, i: int, verdict):
        if verdict.outcome != "exact":
            return f"verdict {verdict.outcome}"
        return None

    def goodput_parts(self, i: int, verdict):
        """(productive, total) simulated rank-seconds of one op."""
        buckets = verdict.ledger.buckets
        return buckets["productive"], sum(buckets.values(), Fraction(0))

    def counts(self, i: int, verdict) -> dict:
        run = self.oracle.last_run
        reg = self.registry
        buckets = verdict.ledger.buckets
        out = {
            "sim.events": run.events,
            "cluster.restarts": max(0, len(run.generations) - 1),
            "storage.objects": len(run.store.list()) if run.store else 0,
            "obs.trace_records": len(run.tracer.events) + len(run.tracer.spans),
            "rework": buckets["rework"],
            "ledger_total": sum(buckets.values(), Fraction(0)),
        }
        phases = {"detect": "repro_failure_detection_seconds",
                  "restart": "repro_recovery_restart_seconds",
                  "resume": "repro_recovery_resume_seconds"}
        for phase, family_name in phases.items():
            total, count = _histogram_totals(reg, family_name)
            out[f"phase.{phase}_sum"] = total
            out[f"phase.{phase}_count"] = count
        out["nccl.wait_sum"] = _histogram_totals(
            reg, "repro_nccl_rendezvous_wait_seconds")[0]
        return out


def _histogram_totals(registry, name: str):
    """(exact sum, observation count) over every child of a histogram."""
    family = registry.get(name) if registry is not None else None
    total, count = Fraction(0), 0
    if family is not None:
        for _labels, child in family.children():
            total += child.exact_sum
            count += child.count
    return total, count


# -- campaign_grid --------------------------------------------------------------------


def losses_digest(losses) -> str:
    """sha256 prefix of a float64 loss stream, as campaign results print it."""
    return hashlib.sha256(
        np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()[:16]


class CampaignGrid:
    """One 3D-parallel campaign scenario per op, policies interleaved."""

    name = "campaign_grid"
    goodput_window = 48
    window = 4
    #: Whole pairs of policies.
    block = 2
    ops_per_second = 1.5
    workload = "GPT2-S-3D"
    policies = ("user_jit", "periodic")
    #: Iterations per scenario: keeps an op under a second.
    iterations = 12
    #: Failures per GPU per second: one restart in nearly every scenario.
    failure_rate = 0.05
    #: Scenarios per policy; more than any run gets through.
    seeds_per_policy = 64
    replayable = True

    def __init__(self, seed: int):
        self.seed = seed

    def _scenario_seeds(self, count: int, offset: int = 0):
        return [self.seed * 1000 + offset + k for k in range(count)]

    def setup(self) -> None:
        from repro.campaign import CampaignRunner, CampaignSpec

        grids = [CampaignSpec.grid(
            f"perfbench-{policy}", workloads=[self.workload],
            policies=[policy],
            seeds=self._scenario_seeds(self.seeds_per_policy),
            target_iterations=self.iterations,
            failure_rate=self.failure_rate) for policy in self.policies]
        interleaved = tuple(scenario for row in zip(*(g.scenarios for g in grids))
                            for scenario in row)
        self.grid = CampaignSpec("perfbench-3d", interleaved)
        self.runner = CampaignRunner(cache=None, workers=1)

    def prepare(self) -> None:
        """Reference digest from the first rank that reports losses.

        The runner's own ``reference_digest`` reads rank 0, which on a
        pipeline-parallel job is a first stage with no losses, so the
        benchmark derives the reference itself.
        """
        from repro.campaign import CampaignSpec
        from repro.workloads import WORKLOADS, TrainingJob

        per_rank = TrainingJob(WORKLOADS[self.workload]).run_training(
            self.iterations)
        self.reference_digest = losses_digest(
            next(losses for losses in per_rank if losses))
        warmup = CampaignSpec.grid(
            "perfbench-warmup", workloads=[self.workload],
            policies=[self.policies[0]],
            seeds=self._scenario_seeds(1, offset=999),
            target_iterations=self.iterations,
            failure_rate=self.failure_rate)
        self.runner.run(warmup)

    def between(self, i: int) -> None:
        pass

    def _scenario(self, i: int):
        return self.grid.scenarios[i % len(self.grid.scenarios)]

    def drive(self, start: int, hook) -> None:
        from repro.campaign import CampaignSpec

        scenarios = self.grid.scenarios
        i = start
        while True:
            first = i % len(scenarios)
            spec = (self.grid if first == 0 else
                    CampaignSpec("perfbench-3d-tail", scenarios[first:]))
            in_flight = [i]

            def on_outcome(index, outcome, offset=i, last=len(spec) - 1):
                if not hook.after(offset + index, outcome, None):
                    raise Stop
                if index < last:     # a new pass starts at the loop head
                    in_flight[0] = offset + index + 1
                    hook.before(in_flight[0])

            hook.before(i)
            try:
                self.runner.run(spec, on_outcome=on_outcome)
            except Stop:
                return
            except Exception as exc:  # a scenario raised: a failed op
                if not hook.after(in_flight[0], None, exc):
                    return
                i = in_flight[0] + 1
                continue
            i += len(spec.scenarios)

    def op_id(self, i: int) -> str:
        return self._scenario(i).scenario_id

    def check(self, i: int, outcome):
        metrics = outcome.metrics
        if not metrics["completed"]:
            return "scenario did not complete"
        if metrics["losses_digest"] != self.reference_digest:
            return (f"{WRONG}losses digest {metrics['losses_digest']} != "
                    f"reference {self.reference_digest}")
        return None

    def goodput_parts(self, i: int, outcome):
        return Fraction(outcome.metrics["goodput"]), 1

    def counts(self, i: int, outcome) -> dict:
        return {"sim.events": outcome.result["perf"]["events"],
                "cluster.restarts": outcome.metrics["restarts"]}


# -- ckpt_store -----------------------------------------------------------------------


def _float_arrays(value):
    """Every float ndarray in a nested state dict, in deterministic order."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield value
    elif isinstance(value, dict):
        for key in sorted(value, key=str):
            yield from _float_arrays(value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _float_arrays(item)


class CkptStore:
    """Commit every shard, maybe rot one, then plan a resume and GC."""

    name = "ckpt_store"
    goodput_window = 48
    window = 48
    #: Whole rot blocks; the output check's validated read and the
    #: payload mutation take about as long as an op, outside its window.
    block = 16
    ops_per_second = 10
    shards = 8
    keep_last = 16
    #: Exactly one op in every block of this many injects bit rot.  The
    #: quarantine is append-only, so rarer rot keeps the store's size,
    #: and with it the cost of an op, nearly steady through a run.
    rot_block = 16
    bandwidth = 1.5e9
    #: Ops commit ever newer iterations, so the loop only moves forward.
    replayable = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.core.checkpoints import CheckpointRegistry
        from repro.oracle import default_oracle_spec
        from repro.sim import Environment
        from repro.storage import RetentionPolicy, SharedObjectStore
        from repro.workloads import TrainingJob

        job = TrainingJob(default_oracle_spec())
        job.run_training(2)
        engines = job.engines
        self.shard_ids = [f"shard{s}" for s in range(self.shards)]
        self.payloads = [engines[s % len(engines)].state_dict()
                         for s in range(self.shards)]
        self.nbytes = engines[0].state_bytes
        self.env = Environment()
        self.store = SharedObjectStore(self.env, bandwidth=self.bandwidth)
        self.registry = CheckpointRegistry(
            self.store, retention=RetentionPolicy(keep_last=self.keep_last))
        self.rotted = set()
        self.rot_plan = {}
        for iteration in range(self.keep_last):
            self._commit(iteration)

    def prepare(self) -> None:
        self.between(-1)      # warm-up op on an iteration of its own
        self.check(-1, self.op(-1))

    def _iteration(self, i: int) -> int:
        return self.keep_last + 1 + i

    def _key(self, shard: int, iteration: int):
        from repro.core.checkpoints import CheckpointKey

        return CheckpointKey(kind="periodic", epoch=iteration,
                             shard_id=self.shard_ids[shard], rank=shard,
                             iteration=iteration)

    def _commit(self, iteration: int) -> None:
        env = self.env
        procs = [env.process(self.registry.write(
            self._key(s, iteration), self.payloads[s], self.nbytes))
            for s in range(self.shards)]
        env.run(until=env.all_of(procs))

    def _rot_target(self, i: int):
        """Shard rotted by op *i*, or None: one op per block, seeded."""
        if i < 0:
            return None
        block = i // self.rot_block
        if block not in self.rot_plan:
            rng = random.Random(self.seed * 7919 + block)
            self.rot_plan[block] = (rng.randrange(self.rot_block),
                                    rng.randrange(self.shards))
        position, shard = self.rot_plan[block]
        return shard if i % self.rot_block == position else None

    def between(self, i: int) -> None:
        """Training moves on: every payload changes in place."""
        self.events_before = self.env.events_processed
        iteration = self._iteration(i)
        step = np.float64(1.0 / (1 + iteration))
        for payload in self.payloads:
            payload["iteration"] = iteration
            for array in _float_arrays(payload):
                array += step

    def op(self, i: int):
        iteration = self._iteration(i)
        self._commit(iteration)
        shard = self._rot_target(i)
        if shard is not None:
            key = self._key(shard, iteration)
            self.store.inject_bit_rot(
                f"{self.registry.job_id}/{key.data_path}", salt=i)
            self.rotted.add(iteration)
        decision = self.registry.planner.plan(self.shard_ids)
        self.registry.garbage_collect(self.shard_ids)
        return decision

    def drive(self, start: int, hook) -> None:
        _loop(self, start, hook)

    def op_id(self, i: int) -> str:
        return f"iteration{self._iteration(i)}"

    def check(self, i: int, decision):
        iteration = self._iteration(i)
        expected = max(it for it in range(iteration + 1)
                       if it not in self.rotted)
        if decision.iteration != expected:
            return f"{WRONG}planned iteration {decision.iteration} != {expected}"
        env = self.env

        def read_all():
            for key in decision.keys.values():
                yield from self.registry.read_validated(key)

        try:
            env.run(until=env.process(read_all()))
        except Exception as exc:  # CorruptCheckpointError, missing key
            return f"{WRONG}read_validated failed: {exc!r}"
        return None

    def goodput_parts(self, i: int, decision):
        """Shard commits that stayed valid restore points, out of all."""
        rotted = 1 if self._rot_target(i) is not None else 0
        return self.shards - rotted, self.shards

    def counts(self, i: int, decision) -> dict:
        return {"sim.events": self.env.events_processed - self.events_before,
                "storage.objects": len(self.store.list())}


WORKLOADS = {w.name: w for w in (OracleSweep, CampaignGrid, CkptStore)}
