"""Scenario execution and the parallel campaign engine.

:func:`execute_scenario` runs one :class:`~repro.campaign.spec.ScenarioSpec`
to a plain-JSON result dict — it is a module-level function taking only a
picklable spec, so :class:`CampaignRunner` can fan scenarios out over a
``ProcessPoolExecutor``.

Result dicts split into two sections:

``metrics``
    Deterministic simulation outputs (restarts, wasted time, goodput,
    loss digest, ...).  These depend only on the scenario configuration,
    so serial and parallel campaign runs aggregate byte-identically.
``perf``
    Wall-clock measurements (events dispatched, events/sec).  These vary
    run to run and are reported as telemetry, never aggregated into
    table results.  ``events`` counts only the events of the scenario's
    own managed simulation: the failure-free reference run behind
    ``ideal_time`` and ``reference_digest`` is memoised per process
    (:func:`_reference_run`) and never counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.campaign.cache import ResultCache
from repro.campaign.shmstore import DEFAULT_SLOT_BYTES, HAVE_SHM, ShmResultStore
from repro.campaign.spec import (KIND_ANALYTIC, KIND_ORACLE, ORACLE_WORKLOAD,
                                 CampaignSpec, ScenarioSpec)
from repro.core.telemetry import CampaignPerf
from repro.obs.metrics import instrument as _instrument
from repro.obs.metrics import registry as _metrics

#: Hard floor on scenario workers (``workers=None`` means "all cores").
_MIN_WORKERS = 1


def _workload_spec(workload: str, node: Optional[str],
                   minibatch_time: Optional[float]):
    from repro.hardware.specs import NODE_SPECS
    from repro.workloads.catalog import WORKLOADS

    resolved = WORKLOADS[workload]
    overrides = {}
    if node is not None:
        overrides["node_spec"] = NODE_SPECS[node]
    if minibatch_time is not None:
        overrides["minibatch_time"] = minibatch_time
    if overrides:
        resolved = dataclasses.replace(resolved, **overrides)
    return resolved


def _resolve_workload(spec: ScenarioSpec):
    return _workload_spec(spec.workload, spec.node, spec.minibatch_time)


def _losses_digest(losses) -> str:
    """Bit-exact digest of a loss stream (the semantics-preservation check)."""
    return hashlib.sha256(
        np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()[:16]


@lru_cache(maxsize=16)
def _reference_run(workload: str, node: Optional[str],
                   minibatch_time: Optional[float],
                   target_iterations: int) -> tuple[float, str]:
    """Ideal failure-free run: ``(ideal_time, reference_digest)``.

    The wasted-time baseline and the loss stream a managed run must
    reproduce depend only on these four fields, so each process simulates
    one per configuration and keeps just the two scalars (never the job or
    its losses).  The memo is per process: pool workers fill their own,
    and the key needs no code fingerprint because code cannot change
    inside a process.  The digest reads the reference rank of
    :meth:`~repro.cluster.manager.JobManager._collect_losses`, the first
    rank that reports losses; first pipeline stages report none.
    """
    from repro.workloads import TrainingJob

    job = TrainingJob(_workload_spec(workload, node, minibatch_time))
    per_rank = job.run_training(target_iterations)
    losses = next((losses for losses in per_rank if losses), [])
    return job.env.now, _losses_digest(losses)


def _type_mix(spec: ScenarioSpec):
    from repro.failures import FailureType

    return tuple((FailureType[name], weight) for name, weight in spec.type_mix)


def _periodic_interval_iterations(workload, spec: ScenarioSpec) -> int:
    """Analytically optimal periodic interval (Section 5, equation 3)."""
    from repro.analysis import CalibratedParameters, optimal_checkpoint_frequency

    params = CalibratedParameters.from_spec(
        workload,
        failure_rate_per_gpu_per_day=spec.failure_rate * 86400).params
    c_star = optimal_checkpoint_frequency(workload.world_size,
                                          params.failure_rate,
                                          params.checkpoint_overhead)
    return max(1, int(round(1 / c_star / workload.minibatch_time)))


def _execute_campaign_scenario(spec: ScenarioSpec) -> dict:
    from repro.cluster.worker import InitCosts
    from repro.core import UserLevelJitRunner
    from repro.core.periodic import CheckpointMode, PeriodicPolicy, PeriodicRunner
    from repro.failures import FailureInjector, PoissonSchedule
    from repro.sim import Environment
    from repro.storage import SharedObjectStore

    workload = _resolve_workload(spec)
    start = time.perf_counter()
    ideal_time, reference_digest = _reference_run(
        spec.workload, spec.node, spec.minibatch_time, spec.target_iterations)

    env = Environment()
    store = SharedObjectStore(env, bandwidth=spec.store_bandwidth)
    init_costs = (InitCosts(*spec.init_costs)
                  if spec.init_costs is not None else None)
    interval_iterations: Optional[int] = None
    if spec.policy == "periodic":
        interval_iterations = _periodic_interval_iterations(workload, spec)
        runner = PeriodicRunner(
            env, workload, store,
            target_iterations=spec.target_iterations,
            policy=PeriodicPolicy(CheckpointMode.PC_MEM, interval_iterations),
            init_costs=init_costs,
            progress_timeout=spec.progress_timeout)
    else:
        runner = UserLevelJitRunner(
            env, workload, store,
            target_iterations=spec.target_iterations,
            init_costs=init_costs,
            progress_timeout=spec.progress_timeout)

    schedule = PoissonSchedule(
        runner.manager.cluster, spec.failure_rate, horizon=spec.horizon,
        seed=spec.seed, type_mix=_type_mix(spec))
    FailureInjector(env, runner.manager.cluster).arm(schedule)
    report = runner.execute()
    wall = time.perf_counter() - start
    return _campaign_result(
        spec, report, ideal_time=ideal_time,
        reference_digest=reference_digest,
        interval_iterations=interval_iterations,
        events=env.events_processed, wall=wall)


def _campaign_result(spec: ScenarioSpec, report, *, ideal_time: float,
                     reference_digest: str,
                     interval_iterations: Optional[int],
                     events: int, wall: float) -> dict:
    """Assemble one campaign scenario's result dict.

    Shared by from-scratch execution above and prefix-fork children
    (:mod:`repro.campaign.prefix`), so the ``metrics`` section — the only
    part aggregation reads — is byte-identical between the two schedulers.
    ``perf`` is wall-clock telemetry and legitimately differs.
    """
    total = report.total_time
    wasted = total - ideal_time
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "completed": report.completed,
            "total_time": total,
            "ideal_time": ideal_time,
            "wasted_time": wasted,
            "wasted_fraction": wasted / total if total else 0.0,
            "goodput": ideal_time / total if total else 0.0,
            "restarts": report.restarts,
            "failures": report.failures_observed,
            "losses_digest": _losses_digest(report.final_losses),
            "reference_digest": reference_digest,
            "interval_iterations": interval_iterations,
        },
        "perf": {
            "events": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
    }


def _execute_analytic_scenario(spec: ScenarioSpec) -> dict:
    """One Table 8 row: closed-form Section 5 wasted-time at N GPUs."""
    from repro.analysis import (
        CalibratedParameters,
        CostParameters,
        jit_transparent_wasted_per_gpu,
        jit_user_level_wasted_per_gpu,
        optimal_checkpoint_frequency,
        periodic_wasted_per_gpu,
        wasted_fraction,
    )

    workload = _resolve_workload(spec)
    start = time.perf_counter()
    params = CalibratedParameters.from_spec(workload).params
    transparent_params = CostParameters(
        checkpoint_overhead=params.checkpoint_overhead,
        failure_rate=params.failure_rate,
        fixed_recovery=0.0,     # CPU process survives: no re-init (Sec 5.5)
        minibatch_time=params.minibatch_time)
    n = spec.n_gpus
    c_star = optimal_checkpoint_frequency(n, params.failure_rate,
                                          params.checkpoint_overhead)
    wall = time.perf_counter() - start
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "n": n,
            "c_star_per_hr": c_star * 3600,
            "periodic": wasted_fraction(periodic_wasted_per_gpu(n, params)),
            "user_jit": wasted_fraction(
                jit_user_level_wasted_per_gpu(n, params)),
            "transparent": wasted_fraction(
                jit_transparent_wasted_per_gpu(n, transparent_params)),
        },
        "perf": {"events": 0, "wall_seconds": wall, "events_per_sec": 0.0},
    }


def _execute_oracle_scenario(spec: ScenarioSpec) -> dict:
    """Recovery-equivalence checks for one strategy (fuzzed or replayed)."""
    from repro.oracle import FailureSchedule, RecoveryOracle, default_oracle_spec

    if spec.workload == ORACLE_WORKLOAD:
        workload = default_oracle_spec(
            minibatch_time=spec.minibatch_time or 0.05)
    else:
        workload = _resolve_workload(spec)
    start = time.perf_counter()
    oracle = RecoveryOracle(spec=workload,
                            iterations=spec.target_iterations)
    if spec.schedule is not None:
        schedules = [FailureSchedule.from_json(spec.schedule)]
    else:
        fuzzer = oracle.fuzzer(spec.seed, shapes=spec.shapes,
                               include_storage=spec.include_storage)
        schedules = list(fuzzer.schedules(spec.fuzz_count))
    verdicts = [oracle.check(schedule, spec.strategy)
                for schedule in schedules]
    events = oracle.events_processed
    wall = time.perf_counter() - start
    failures = [v for v in verdicts if not v.passed]
    # Goodput-bucket seconds summed across all checked runs.  Ledgers are
    # deterministic functions of the (scenario, strategy) pair, so these
    # aggregate byte-identically between serial and parallel campaigns.
    goodput = {bucket: float(amount)
               for bucket, amount in oracle.goodput_buckets.items()}
    goodput["balanced"] = all(v.ledger is None or v.ledger.balanced
                              for v in verdicts)
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "strategy": spec.strategy,
            "checks": len(verdicts),
            "failures": len(failures),
            "passed": not failures,
            "outcomes": [v.outcome for v in verdicts],
            "violations": [str(violation) for v in failures
                           for violation in v.violations],
            "failing_schedules": [v.schedule.to_json() for v in failures],
            "storage": dict(oracle.storage_stats),
            "goodput": goodput,
        },
        "perf": {
            "events": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
    }


def execute_scenario(spec: ScenarioSpec) -> dict:
    """Run one scenario to a plain-JSON result dict (picklable entry point)."""
    if spec.kind == KIND_ANALYTIC:
        return _execute_analytic_scenario(spec)
    if spec.kind == KIND_ORACLE:
        return _execute_oracle_scenario(spec)
    return _execute_campaign_scenario(spec)


def _execute_scenario_slot(args) -> tuple[int, Optional[dict]]:
    """Pool entry point: run a scenario, publish its result via shared memory.

    Returns ``(position, None)`` when the result landed in its shm slot —
    the parent reads it from the segment, so only two small ints travel
    through the pool's pickle channel — or ``(position, result)`` when no
    segment is available or the result overflowed its slot.
    """
    spec, shm_name, position, slots, slot_bytes = args
    result = execute_scenario(spec)
    if shm_name is not None and HAVE_SHM:
        try:
            store = ShmResultStore.attach(shm_name, slots, slot_bytes)
        except Exception:
            return position, result
        try:
            if store.write(position, result):
                return position, None
        finally:
            store.close()
    return position, result


def _execute_unit_slot(args) -> list[tuple[int, Optional[dict]]]:
    """Pool entry point for one dispatch unit (scenario or prefix group).

    Returns ``(position, None)`` per scenario whose result landed in its
    shm slot, ``(position, result)`` for those that fell back to the
    pickle channel (no segment, attach failure, or slot overflow).
    """
    items, is_group, shm_name, slots, slot_bytes, max_live = args
    if is_group:
        from repro.campaign.prefix import execute_prefix_group

        results = execute_prefix_group([spec for _pos, spec in items],
                                       max_live=max_live)
    else:
        results = [execute_scenario(spec) for _pos, spec in items]
    store = None
    if shm_name is not None and HAVE_SHM:
        try:
            store = ShmResultStore.attach(shm_name, slots, slot_bytes)
        except Exception:
            store = None
    out: list[tuple[int, Optional[dict]]] = []
    try:
        for (position, _spec), result in zip(items, results):
            if store is not None and store.write(position, result):
                out.append((position, None))
            else:
                out.append((position, result))
    finally:
        if store is not None:
            store.close()
    return out


@dataclass
class ScenarioOutcome:
    """One scenario's result plus where it came from."""

    spec: ScenarioSpec
    result: dict
    from_cache: bool

    @property
    def metrics(self) -> dict:
        return self.result["metrics"]


@dataclass
class CampaignResult:
    """Ordered outcomes of one campaign run plus engine telemetry."""

    campaign: CampaignSpec
    outcomes: list[ScenarioOutcome]
    perf: CampaignPerf = field(default_factory=CampaignPerf)

    @property
    def cache_hits(self) -> int:
        return self.perf.cache_hits

    @property
    def executed(self) -> int:
        return self.perf.cache_misses

    def rows(self) -> list[dict]:
        """Scenario results in campaign order (determinism anchor)."""
        return [outcome.result for outcome in self.outcomes]

    def aggregate(self) -> list[dict]:
        from repro.campaign.aggregate import aggregate_results

        return aggregate_results(self.rows())


class CampaignRunner:
    """Fans a campaign's scenarios out over processes, with result caching.

    ``workers=1`` executes inline (no pool); ``workers=None`` uses every
    core.  Results are keyed by scenario content hash, so a second run of
    an unchanged campaign executes zero scenarios.  Scenario *results* are
    deterministic functions of their spec; only dispatch order varies with
    the worker count, and outcomes are always reassembled in campaign
    order.

    With ``use_shm`` (the default where ``multiprocessing.shared_memory``
    works), workers publish results through a fixed-slot shared-memory
    segment and return only their slot index, keeping per-scenario pickle
    round-trips off the pool's result queue; see
    :mod:`repro.campaign.shmstore`.  Oversized results degrade to the
    pickle path per scenario, never to an error.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None, use_shm: bool = True,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 prefix_fork: bool = False, fork_max_live: int = 4):
        import os

        self.cache = cache
        self.workers = max(_MIN_WORKERS, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.use_shm = use_shm and HAVE_SHM
        self.slot_bytes = slot_bytes
        #: Group campaign scenarios by failure-free prefix and fork each
        #: scenario's divergent tail from a shared copy-on-write snapshot
        #: (:mod:`repro.campaign.prefix`).  Metrics are byte-identical to
        #: from-scratch execution; wall clock is substantially lower for
        #: seed/rate sweeps.  Non-campaign kinds always run from scratch.
        self.prefix_fork = prefix_fork
        self.fork_max_live = fork_max_live

    def run(self, campaign: CampaignSpec,
            on_outcome: Optional[Callable[[int, "ScenarioOutcome"], None]]
            = None) -> CampaignResult:
        """Run the campaign; ``on_outcome(index, outcome)`` streams results.

        The callback fires once per scenario as its result becomes
        available — cache hits immediately, fresh results in worker
        completion order — so a streaming consumer (e.g.
        :class:`~repro.campaign.aggregate.StreamingAggregator`) never
        waits for the full grid.  ``CampaignResult.outcomes`` is always
        reassembled in campaign order regardless.
        """
        start = time.perf_counter()
        perf = CampaignPerf()
        results: dict[int, dict] = {}
        cached: dict[int, bool] = {}
        pending: list[tuple[int, ScenarioSpec]] = []

        for index, spec in enumerate(campaign.scenarios):
            hit = (self.cache.get(spec.content_hash())
                   if self.cache is not None else None)
            if hit is not None:
                results[index] = hit
                cached[index] = True
                perf.cache_hits += 1
                if on_outcome is not None:
                    on_outcome(index, ScenarioOutcome(spec, hit, True))
            else:
                pending.append((index, spec))

        if pending:
            perf.cache_misses = len(pending)

            def publish(position: int, result: dict) -> None:
                index, spec = pending[position]
                results[index] = result
                cached[index] = False
                perf.record_run(spec.scenario_id,
                                result["perf"]["events"],
                                result["perf"]["wall_seconds"])
                if self.cache is not None:
                    self.cache.put(spec.content_hash(), result)
                if on_outcome is not None:
                    on_outcome(index, ScenarioOutcome(spec, result, False))

            self._execute(pending, publish)

        perf.wall_seconds = time.perf_counter() - start
        reg = _metrics.active()
        if reg is not None:
            busy = sum(run.wall_seconds for run in perf.runs)
            _instrument.record_campaign_perf(reg, perf, self.workers, busy)
        outcomes = [ScenarioOutcome(spec, results[i], cached[i])
                    for i, spec in enumerate(campaign.scenarios)]
        return CampaignResult(campaign=campaign, outcomes=outcomes, perf=perf)

    def run_aggregated(self, campaign: CampaignSpec
                       ) -> tuple[CampaignResult, list[dict]]:
        """Run the campaign with results streamed into the aggregator.

        Equivalent to ``(result, result.aggregate())`` but the aggregation
        consumes each scenario result as it arrives instead of a second
        pass over the materialised row list.
        """
        from repro.campaign.aggregate import StreamingAggregator

        aggregator = StreamingAggregator()
        result = self.run(campaign, on_outcome=lambda index, outcome:
                          aggregator.add(index, outcome.result))
        return result, aggregator.result()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_units(self, specs: list[ScenarioSpec]
                        ) -> list[tuple[list[tuple[int, ScenarioSpec]], bool]]:
        """Partition scenarios into dispatch units: ``(items, is_group)``.

        With :attr:`prefix_fork`, campaign-kind scenarios sharing a
        failure-free prefix become one multi-scenario unit; everything
        else (and singleton groups) stays a from-scratch unit.
        """
        units: list[tuple[list[tuple[int, ScenarioSpec]], bool]] = []
        if self.prefix_fork:
            from repro.campaign.prefix import group_by_prefix
            from repro.campaign.spec import KIND_CAMPAIGN

            groupable = [(position, spec) for position, spec in enumerate(specs)
                         if spec.kind == KIND_CAMPAIGN]
            for group in group_by_prefix(groupable):
                units.append((group, len(group) > 1))
            for position, spec in enumerate(specs):
                if spec.kind != KIND_CAMPAIGN:
                    units.append(([(position, spec)], False))
        else:
            units = [([(position, spec)], False)
                     for position, spec in enumerate(specs)]
        return units

    def _execute(self, pending: list[tuple[int, ScenarioSpec]],
                 publish: Callable[[int, dict], None]) -> None:
        """Execute scenarios, calling ``publish(position, result)`` as each
        finishes (positions index into *pending*)."""
        specs = [spec for _index, spec in pending]
        units = self._dispatch_units(specs)
        if self.workers == 1 or len(units) == 1:
            for items, is_group in units:
                if is_group:
                    from repro.campaign.prefix import execute_prefix_group

                    results = execute_prefix_group(
                        [spec for _pos, spec in items],
                        max_live=self.fork_max_live)
                    for (position, _spec), result in zip(items, results):
                        publish(position, result)
                else:
                    for position, spec in items:
                        publish(position, execute_scenario(spec))
            return
        max_workers = min(self.workers, len(units))
        store: Optional[ShmResultStore] = None
        if self.use_shm:
            try:
                store = ShmResultStore.create(len(specs), self.slot_bytes)
            except Exception:
                store = None  # no /dev/shm (or exhausted): plain pickles
        shm_name = store.name if store is not None else None
        slot_bytes = store.slot_bytes if store is not None else 0
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(_execute_unit_slot,
                                (items, is_group, shm_name, len(specs),
                                 slot_bytes, self.fork_max_live))
                    for items, is_group in units]
                for future in as_completed(futures):
                    for position, inline in future.result():
                        if inline is not None:
                            result = inline
                        else:
                            result = store.read(position)
                            if result is None:
                                # Slot lost (e.g. segment torn down under
                                # memory pressure).  Results are pure
                                # functions of the spec: recompute inline
                                # rather than failing the whole campaign.
                                result = execute_scenario(specs[position])
                        publish(position, result)
        finally:
            if store is not None:
                store.close()
                store.unlink()
