"""Campaign engine: determinism, caching, and aggregation.

The headline guarantee (ISSUE acceptance criterion): an 8-scenario
campaign produces byte-identical aggregated results whether it runs
serially, across 4 worker processes, or entirely from a warm cache —
and the warm rerun executes zero scenarios.
"""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultCache,
    ScenarioSpec,
    aggregate_results,
    canonical_json,
    execute_scenario,
    percentile,
)


def small_campaign(name="determinism"):
    """8 scenarios (2 policies x 4 seeds), sized for a ~1s/scenario run."""
    return CampaignSpec.grid(
        name,
        workloads=["GPT2-S"],
        policies=["user_jit", "periodic"],
        seeds=[0, 1, 2, 3],
        target_iterations=15,
        failure_rate=1.0 / 25.0,
        horizon=150.0,
        minibatch_time=0.1,
        init_costs=(0.5, 0.25, 0.25),
        progress_timeout=10.0,
        type_mix=(("GPU_HARD", 0.5), ("GPU_STICKY", 0.5)),
    )


def test_serial_parallel_and_cached_aggregates_are_byte_identical(tmp_path):
    campaign = small_campaign()
    assert len(campaign) == 8

    serial = CampaignRunner(cache=None, workers=1).run(campaign)
    parallel = CampaignRunner(cache=None, workers=4).run(campaign)

    cache = ResultCache(tmp_path / "cache")
    cold = CampaignRunner(cache=cache, workers=2).run(campaign)
    warm = CampaignRunner(cache=cache, workers=2).run(campaign)

    blobs = {canonical_json(run.aggregate())
             for run in (serial, parallel, cold, warm)}
    assert len(blobs) == 1, "aggregates diverged across execution modes"

    # Outcome rows come back in campaign order regardless of which worker
    # finished first.
    for run in (serial, parallel, cold, warm):
        assert [o.spec.scenario_id for o in run.outcomes] == \
            [s.scenario_id for s in campaign.scenarios]

    # The warm rerun is served entirely from cache.
    assert cold.perf.cache_hits == 0
    assert cold.perf.cache_misses == 8
    assert warm.executed == 0
    assert warm.perf.cache_hits == 8
    assert warm.perf.cache_hit_rate == 1.0


#: sha256 prefix of a loss stream with no entries (``_losses_digest([])``).
EMPTY_STREAM_DIGEST = "e3b0c44298fc1c14"


def test_campaign_runs_preserve_training_semantics(tmp_path):
    result = CampaignRunner(cache=None, workers=1).run(
        small_campaign("semantics"))
    digests = set()
    for outcome in result.outcomes:
        metrics = outcome.metrics
        assert metrics["completed"], outcome.spec.scenario_id
        # Recovery must be semantics-preserving: the loss stream matches
        # the failure-free reference bit for bit.
        assert metrics["losses_digest"] == metrics["reference_digest"]
        digests.add(metrics["losses_digest"])
    # Same workload + iterations -> one digest across policies and seeds.
    assert len(digests) == 1

    # Pipeline job: rank 0 is a first stage that reports no losses, so
    # the reference must come from the first rank that does.
    metrics = execute_scenario(ScenarioSpec(
        workload="GPT2-S-3D", policy="user_jit", seed=1,
        target_iterations=8, failure_rate=0.05))["metrics"]
    assert metrics["completed"]
    assert metrics["failures"] > 0
    assert metrics["losses_digest"] == metrics["reference_digest"]
    assert metrics["reference_digest"] != EMPTY_STREAM_DIGEST


# -- spec hashing ----------------------------------------------------------------------


def test_content_hash_is_stable_and_config_sensitive():
    a = ScenarioSpec(seed=7)
    b = ScenarioSpec(seed=7)
    c = ScenarioSpec(seed=8)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    # The hash covers the full config, not just the identity fields.
    d = ScenarioSpec(seed=7, failure_rate=1.0 / 80.0)
    assert a.scenario_id == d.scenario_id
    assert a.content_hash() != d.content_hash()


def test_campaign_rejects_duplicate_scenarios():
    spec = ScenarioSpec(seed=1)
    with pytest.raises(ValueError, match="duplicate"):
        CampaignSpec(name="dup", scenarios=(spec, spec))


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(workload="NOT-A-MODEL")
    with pytest.raises(ValueError):
        ScenarioSpec(policy="hope")
    with pytest.raises(ValueError):
        ScenarioSpec(kind="analytic")  # analytic requires n_gpus > 0


# -- result cache ----------------------------------------------------------------------


def test_cache_roundtrip_and_corruption_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ScenarioSpec(seed=3)
    key = spec.content_hash()
    assert cache.get(key) is None

    payload = {"metrics": {"restarts": 2}, "scenario_id": spec.scenario_id}
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert key in cache and len(cache) == 1

    cache.path(key).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None  # corrupt entry degrades to a miss

    cache.clear()
    assert len(cache) == 0


def test_cache_invalidates_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    base = ScenarioSpec(seed=0, target_iterations=50)
    cache.put(base.content_hash(), {"metrics": {}})
    changed = ScenarioSpec(seed=0, target_iterations=51)
    assert cache.get(changed.content_hash()) is None


# -- aggregation -----------------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_aggregate_results_groups_by_workload_and_policy():
    def row(policy, seed, restarts):
        return {
            "scenario": {"kind": "campaign", "workload": "GPT2-S",
                         "policy": policy, "seed": seed},
            "metrics": {"completed": True, "failures": 1,
                        "restarts": float(restarts), "wasted_time": 1.0,
                        "wasted_fraction": 0.1, "goodput": 0.9,
                        "losses_digest": "aaaa"},
        }

    rows = [row("user_jit", s, r) for s, r in enumerate((0, 2, 4))]
    rows += [row("periodic", s, 1) for s in range(2)]

    def by_group(aggregated):
        return {(e["workload"], e["policy"]): e for e in aggregated}

    summary = by_group(aggregate_results(rows))
    jit = summary[("GPT2-S", "user_jit")]
    assert jit["scenarios"] == 3
    assert jit["restarts"]["mean"] == 2.0
    assert jit["restarts"]["p50"] == 2.0
    assert jit["completed"] is True
    assert jit["losses_digest"] == "aaaa"
    assert summary[("GPT2-S", "periodic")]["scenarios"] == 2

    rows[0]["metrics"]["losses_digest"] = "bbbb"
    diverged = by_group(aggregate_results(rows))
    assert diverged[("GPT2-S", "user_jit")]["losses_digest"] == "DIVERGED"


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == \
        canonical_json(json.loads('{"a": [2, 3], "b": 1}'))


# -- analytic scenarios ----------------------------------------------------------------


def test_analytic_scenario_executes_standalone():
    spec = ScenarioSpec(kind="analytic", workload="BERT-L-PT", n_gpus=1024)
    result = execute_scenario(spec)
    metrics = result["metrics"]
    assert metrics["n"] == 1024
    assert 0 < metrics["user_jit"] < metrics["periodic"]
    assert metrics["transparent"] < metrics["user_jit"]


# -- shared-memory result streaming ----------------------------------------------------


def test_shm_result_store_roundtrip_and_overflow():
    from repro.campaign import ShmResultStore

    with ShmResultStore.create(slots=3, slot_bytes=256) as store:
        assert store.read(0) is None
        payload = {"metrics": {"restarts": 1}, "scenario_id": "x"}
        assert store.write(0, payload)
        assert store.read(0) == payload
        # Writers and readers agree across an attach (same process here;
        # the pool path exercises cross-process).
        other = ShmResultStore.attach(store.name, 3, 256)
        try:
            assert other.read(0) == payload
            assert other.write(2, {"k": "v"})
        finally:
            other.close()
        assert store.read(2) == {"k": "v"}
        # A result bigger than the slot is refused, not truncated.
        assert not store.write(1, {"blob": "z" * 512})
        assert store.read(1) is None
        with pytest.raises(IndexError):
            store.read(3)


def test_streaming_run_matches_batch_aggregate(tmp_path):
    from repro.campaign import StreamingAggregator

    campaign = small_campaign("streaming")
    runner = CampaignRunner(cache=None, workers=4)
    result, streamed = runner.run_aggregated(campaign)
    assert canonical_json(streamed) == canonical_json(result.aggregate())

    # Tiny slots force every scenario through the pickle fallback; the
    # outcome must be byte-identical.
    cramped = CampaignRunner(cache=None, workers=4, slot_bytes=32)
    _result2, streamed2 = cramped.run_aggregated(campaign)
    assert canonical_json(streamed2) == canonical_json(streamed)

    # Warm-cache streaming: every outcome arrives via the callback without
    # touching a pool.
    cache = ResultCache(tmp_path / "cache")
    CampaignRunner(cache=cache, workers=2).run(campaign)
    seen = []
    warm = CampaignRunner(cache=cache, workers=2).run(
        campaign, on_outcome=lambda i, o: seen.append((i, o.from_cache)))
    assert warm.executed == 0
    assert sorted(i for i, _ in seen) == list(range(len(campaign)))
    assert all(from_cache for _, from_cache in seen)


def test_streaming_aggregator_is_order_independent():
    from repro.campaign import StreamingAggregator

    def row(policy, seed, restarts):
        return {
            "scenario": {"kind": "campaign", "workload": "GPT2-S",
                         "policy": policy, "seed": seed},
            "metrics": {"completed": True, "failures": 1,
                        "restarts": float(restarts), "wasted_time": 1.0,
                        "wasted_fraction": 0.1, "goodput": 0.9,
                        "losses_digest": "aaaa"},
        }

    rows = [row("user_jit", s, r) for s, r in enumerate((0, 2, 4))]
    rows += [row("periodic", s, 1) for s in range(2)]
    batch = aggregate_results(rows)
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [3, 4, 0, 1, 2]):
        agg = StreamingAggregator()
        for index in order:
            agg.add(index, rows[index])
        assert canonical_json(agg.result()) == canonical_json(batch)


def test_streaming_aggregator_analytic_passthrough():
    from repro.campaign import StreamingAggregator

    rows = [{
        "scenario": {"kind": "analytic", "workload": "BERT-L-PT",
                     "n_gpus": n},
        "metrics": {"n": n, "periodic": 0.1 * i},
    } for i, n in enumerate((1024, 2048))]
    agg = StreamingAggregator()
    agg.add(1, rows[1])
    agg.add(0, rows[0])
    assert canonical_json(agg.result()) == canonical_json(aggregate_results(rows))


# -- code fingerprint --------------------------------------------------------------


def test_content_hash_covers_code_fingerprint(monkeypatch):
    from repro.campaign import code_fingerprint
    from repro.campaign import spec as spec_mod

    spec = ScenarioSpec(seed=5)
    base = spec.content_hash()
    fingerprint = code_fingerprint()
    assert fingerprint.endswith(("+fast", "+slow"))

    monkeypatch.setattr(spec_mod, "_source_fingerprint",
                        lambda: "feedfacefeedface")
    assert spec.content_hash() != base


def test_package_fingerprint_covers_non_kernel_modules(tmp_path):
    import shutil
    from pathlib import Path

    import repro
    from repro.campaign.spec import package_fingerprint

    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = package_fingerprint(copy)
    assert before == package_fingerprint(Path(repro.__file__).parent)

    planner = copy / "storage" / "planner.py"
    planner.write_text(planner.read_text() + "\n# edited\n")
    assert package_fingerprint(copy) != before


def test_content_hash_covers_fastpath_toggle(monkeypatch):
    from repro.sim import fastpath

    spec = ScenarioSpec(seed=5)
    monkeypatch.setattr(fastpath, "enabled", lambda: True)
    fast = spec.content_hash()
    monkeypatch.setattr(fastpath, "enabled", lambda: False)
    assert spec.content_hash() != fast


# -- reference-run memo ----------------------------------------------------------------
# The failure-free reference run depends only on (workload, node,
# minibatch_time, target_iterations), so each process simulates it once per
# configuration and every scenario reuses its two scalars.


@pytest.mark.parametrize("fast", [True, False])
def test_reference_memo_hit_matches_cold_run(fast):
    from repro.campaign.runner import _reference_run
    from repro.sim.fastpath import fast_path

    spec = small_campaign("memo").scenarios[0]
    with fast_path(fast):
        _reference_run.cache_clear()
        cold = execute_scenario(spec)
        assert _reference_run.cache_info().misses == 1
        hit = execute_scenario(spec)
        assert _reference_run.cache_info().hits == 1
    assert canonical_json(hit["metrics"]) == canonical_json(cold["metrics"])
    # perf counts only the managed run, hit or miss.
    assert hit["perf"]["events"] == cold["perf"]["events"]


def test_reference_memo_keys_on_node_minibatch_and_iterations():
    from repro.campaign.runner import _reference_run

    base = dict(workload="GPT2-S", policy="user_jit", seed=0,
                target_iterations=4, minibatch_time=0.1,
                failure_rate=1.0 / 25.0, horizon=150.0,
                init_costs=(0.5, 0.25, 0.25), progress_timeout=10.0)
    variants = [base, {**base, "node": "DGX1-V100"},
                {**base, "minibatch_time": 0.2},
                {**base, "target_iterations": 5}]
    _reference_run.cache_clear()
    ideal = [execute_scenario(ScenarioSpec(**v))["metrics"]["ideal_time"]
             for v in variants]
    info = _reference_run.cache_info()
    assert (info.misses, info.hits) == (len(variants), 0)
    assert len(set(ideal)) == len(variants)
    # Seed and policy shape only the managed run: they share the entry.
    execute_scenario(ScenarioSpec(**{**base, "seed": 1, "policy": "periodic"}))
    assert _reference_run.cache_info().hits == 1


# -- prefix-fork scheduling ------------------------------------------------------------
# Scenarios of one grid share their failure-free prefix; prefix-fork
# execution simulates that prefix once and forks a copy-on-write child per
# scenario at its first-failure time.  The ``metrics`` sections (and
# therefore every aggregate) must be byte-identical to from-scratch
# execution — only ``perf`` (wall clock, per-process event counts) may
# differ.


def _strip_perf(result):
    return {key: value for key, value in result.items() if key != "perf"}


def test_prefix_fork_group_matches_from_scratch_byte_identically():
    from repro.campaign.prefix import (execute_prefix_group, group_by_prefix,
                                       prefix_key)
    from repro.sim.snapshot import HAVE_FORK

    if not HAVE_FORK:
        pytest.skip("os.fork unavailable")

    from repro.campaign.runner import _reference_run

    campaign = small_campaign("prefix-fork")
    specs = [spec for spec in campaign.scenarios if spec.policy == "user_jit"]
    assert len(specs) == 4
    assert len({prefix_key(spec) for spec in specs}) == 1
    groups = group_by_prefix(list(enumerate(specs)))
    assert [position for position, _ in groups[0]] == [0, 1, 2, 3]

    # The group fills the reference memo cold; from-scratch runs hit it.
    _reference_run.cache_clear()
    forked = execute_prefix_group(specs)
    scratch = [execute_scenario(spec) for spec in specs]
    assert _reference_run.cache_info().misses == 1
    assert [canonical_json(_strip_perf(r)) for r in forked] == \
        [canonical_json(_strip_perf(r)) for r in scratch]
    # At least one scenario's schedule actually fired, so divergent tails
    # (not just the shared trajectory) are covered.
    assert any(r["metrics"]["failures"] > 0 for r in forked)


def test_prefix_key_separates_trajectory_shaping_config():
    from repro.campaign.prefix import prefix_key
    from repro.campaign.spec import KIND_ANALYTIC

    base = ScenarioSpec(seed=0, policy="user_jit")
    # Seeds and (for user_jit) failure rates shape only the tail.
    assert prefix_key(base) == prefix_key(ScenarioSpec(seed=5,
                                                       policy="user_jit"))
    assert prefix_key(base) == prefix_key(
        ScenarioSpec(seed=0, policy="user_jit", failure_rate=1.0 / 80.0))
    # The periodic policy derives its checkpoint interval from the failure
    # rate, which changes the failure-free trajectory itself.
    per_a = ScenarioSpec(seed=0, policy="periodic", failure_rate=1.0 / 25.0)
    per_b = ScenarioSpec(seed=0, policy="periodic", failure_rate=1.0 / 80.0)
    assert prefix_key(per_a) != prefix_key(per_b)
    assert prefix_key(base) != prefix_key(ScenarioSpec(seed=0,
                                                       policy="periodic"))
    with pytest.raises(ValueError):
        prefix_key(ScenarioSpec(seed=0, kind=KIND_ANALYTIC,
                                failure_rate=1.0 / 30.0))


def test_prefix_fork_runner_aggregate_is_byte_identical(tmp_path):
    from repro.sim.snapshot import HAVE_FORK

    if not HAVE_FORK:
        pytest.skip("os.fork unavailable")

    campaign = small_campaign("prefix-runner")
    plain = CampaignRunner(cache=None, workers=1).run(campaign)
    forked = CampaignRunner(cache=None, workers=1,
                            prefix_fork=True).run(campaign)
    pooled = CampaignRunner(cache=None, workers=2,
                            prefix_fork=True).run(campaign)
    blobs = {canonical_json(run.aggregate())
             for run in (plain, forked, pooled)}
    assert len(blobs) == 1, "prefix-fork changed campaign results"
    for run in (forked, pooled):
        assert [o.spec.scenario_id for o in run.outcomes] == \
            [s.scenario_id for s in campaign.scenarios]


def test_shm_slot_overflow_falls_back_to_inline_recompute():
    """A result too large for its shared-memory slot must degrade to the
    parent recomputing the scenario inline — never a hard failure (the
    pre-fix behaviour raised RuntimeError on the empty slot)."""
    campaign = small_campaign("shm-overflow")
    # 64-byte slots: every result overflows its slot.
    tiny = CampaignRunner(cache=None, workers=2, slot_bytes=64).run(campaign)
    plain = CampaignRunner(cache=None, workers=1).run(campaign)
    assert canonical_json(tiny.aggregate()) == canonical_json(plain.aggregate())


def test_oracle_scenario_storage_shapes():
    from repro.campaign.runner import execute_scenario
    from repro.campaign.spec import KIND_ORACLE, ORACLE_WORKLOAD, ScenarioSpec

    spec = ScenarioSpec(kind=KIND_ORACLE, workload=ORACLE_WORKLOAD,
                        strategy="user_level", seed=7, fuzz_count=2,
                        target_iterations=12,
                        shapes=("torn_write", "bit_rot"))
    assert "torn_write,bit_rot" in spec.scenario_id
    result = execute_scenario(spec)
    assert result["metrics"]["passed"], result["metrics"]["violations"]
    storage = result["metrics"]["storage"]
    assert storage["writes_started"] > 0
    assert storage["bit_rot_injected"] + storage["writes_torn"] >= 1

    with pytest.raises(ValueError, match="unknown oracle shapes"):
        ScenarioSpec(kind=KIND_ORACLE, workload=ORACLE_WORKLOAD,
                     strategy="user_level", fuzz_count=1,
                     shapes=("disk_on_fire",))


def test_oracle_scenario_include_storage_changes_hash():
    from repro.campaign.spec import KIND_ORACLE, ORACLE_WORKLOAD, ScenarioSpec

    base = ScenarioSpec(kind=KIND_ORACLE, workload=ORACLE_WORKLOAD,
                        strategy="periodic", fuzz_count=2)
    storage = ScenarioSpec(kind=KIND_ORACLE, workload=ORACLE_WORKLOAD,
                           strategy="periodic", fuzz_count=2,
                           include_storage=True)
    assert base.content_hash() != storage.content_hash()


def test_campaign_runner_feeds_metrics_registry(tmp_path):
    """With a registry collecting, a campaign run lands its perf counters
    (cache hits/misses, scenario count) and utilization gauges."""
    from repro.obs import metrics, observability

    campaign = small_campaign("metrics")
    cache = ResultCache(tmp_path / "cache")
    with observability(True), metrics.collecting() as reg:
        CampaignRunner(cache=cache, workers=1).run(campaign)
        CampaignRunner(cache=cache, workers=1).run(campaign)

    scenarios = reg.get("repro_campaign_scenarios")
    assert scenarios is not None
    # The counter tracks simulated runs; the warm pass is all cache hits.
    total = sum(child.exact for _, child in scenarios.children())
    assert total == len(campaign)
    hits = sum(child.exact for _, child in
               reg.get("repro_campaign_cache_hits").children())
    assert hits == len(campaign)          # second run fully warm
    hit_rate = reg.get("repro_campaign_cache_hit_rate").value
    assert hit_rate == 1.0                # gauge shows the latest run
    utilization = reg.get("repro_campaign_worker_utilization").value
    assert 0.0 <= utilization <= 1.0
