"""Per-layer attribution for the traced run.

Layers are the ``src/repro/<layer>`` packages.  The traced run profiles
each op with :mod:`cProfile`; this module turns the profile into

* ``<layer>.self_s``: self time of the functions under
  ``src/repro/<layer>/``.  Self time of a function outside ``repro``
  (standard library, numpy, builtins, the benchmark's own wrappers) is
  charged to the ``repro`` layers that called it, split by the time each
  call edge accounts for and followed up through chains of such callers;
* calls and inclusive time of named entry points, resolved from the
  public classes that define them, so a renamed entry point stops the
  traced run instead of reading zero.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

#: Layers whose self time the benchmark reports.
LAYERS = ("sim", "cuda", "nccl", "hardware", "framework", "parallel",
          "workloads", "core", "cluster", "failures", "storage", "obs",
          "oracle", "campaign")


def _key(function):
    code = getattr(function, "__func__", function).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def entry_points():
    """(call-count metrics, inclusive-time metrics): name -> profile keys."""
    from repro.core.checkpoints import CheckpointRegistry
    from repro.core.proxy import DeviceProxyApi
    from repro.cuda import CudaContext
    from repro.failures import FailureInjector
    from repro.nccl import NcclCommunicator
    from repro.obs import build_strategy_ledger
    from repro.obs.metrics.bridge import record_strategy_run
    from repro.obs.metrics.store import sample_registry
    from repro.oracle import check_all
    from repro.parallel import DeviceApi
    from repro.storage import (CheckpointValidator, Manifest, ResumePlanner,
                               SharedObjectStore)
    from repro.workloads import TrainingJob

    comm = NcclCommunicator
    calls = {
        "cuda.launches": [CudaContext.launch_kernel],
        "cuda.mallocs": [CudaContext.malloc],
        "nccl.collectives": [comm.all_reduce, comm.all_reduce_batch,
                             comm.broadcast, comm.all_gather,
                             comm.reduce_scatter, comm.barrier],
        "nccl.p2p": [comm.send, comm.recv],
        "parallel.train_steps": [DeviceApi.minibatch_begin],
        "workloads.reference_runs": [TrainingJob.run_training],
        "core.replays": [DeviceProxyApi.replay],
        "failures.injected": [FailureInjector.apply],
        "storage.commits": [Manifest.for_payload],
        "storage.plans": [ResumePlanner.plan],
        "storage.list_calls": [SharedObjectStore.list],
        "storage.quarantined": [CheckpointValidator.condemn],
    }
    times = {
        "workloads.reference_s": [TrainingJob.run_training],
        "core.replay_s": [DeviceProxyApi.replay],
        "storage.commit_s": [CheckpointRegistry.write],
        "storage.plan_s": [ResumePlanner.plan,
                           CheckpointRegistry.garbage_collect],
        "obs.ledger_s": [build_strategy_ledger],
        "obs.metrics_s": [record_strategy_run, sample_registry],
        "oracle.invariants_s": [check_all],
    }
    return ({name: [_key(f) for f in fs] for name, fs in calls.items()},
            {name: [_key(f) for f in fs] for name, fs in times.items()})


def call_counts(stats: dict, calls: dict) -> dict:
    return {name: sum(stats[k][1] for k in keys if k in stats)
            for name, keys in calls.items()}


def inclusive_times(stats: dict, times: dict) -> dict:
    return {name: sum(stats[k][3] for k in keys if k in stats)
            for name, keys in times.items()}


def self_times(stats: dict, package_dir: str) -> dict:
    """Self seconds per layer; foreign self time goes to its callers."""
    root = os.path.join(os.path.abspath(package_dir), "")

    def layer(key):
        if not key[0].startswith(root):
            return None
        head, sep, _rest = key[0][len(root):].partition(os.sep)
        return head if sep else "repro"

    memo: dict = {}

    def shares(key, visiting):
        """Fractions of *key*'s foreign time owed to each layer; empty
        when every caller chain loops back into *visiting*."""
        if key in memo:
            return memo[key]
        own_layer = layer(key)
        if own_layer is not None:
            return {own_layer: 1.0}
        callers = stats[key][4] if key in stats else {}
        weights = defaultdict(float)
        visiting = visiting | {key}
        total = 0.0
        for caller, edge in callers.items():
            if caller in visiting:
                continue
            weight = edge[2] if edge[2] > 0 else edge[3]
            upstream = shares(caller, visiting) if weight > 0 else {}
            for name, share in upstream.items():
                weights[name] += weight * share
            total += weight if upstream else 0.0
        result = {name: w / total for name, w in weights.items()}
        if len(visiting) == 1:
            memo[key] = result
        return result

    out = defaultdict(float)
    for key, entry in stats.items():
        if entry[2] <= 0:
            continue
        owed = shares(key, frozenset()) or {"unattributed": 1.0}
        for name, share in owed.items():
            out[name] += entry[2] * share
    return dict(out)


class ListCounter:
    """Counts paths returned by checkpoint-store ``list`` calls.

    Installed on the class that defines ``SharedObjectStore.list`` for the
    traced run only, so every store kind is covered; removed afterwards.
    Only calls made while the profiler runs count, so the benchmark's own
    between-op reads stay out.
    """

    def __init__(self):
        from repro.storage import SharedObjectStore

        self.owner = next(cls for cls in SharedObjectStore.__mro__
                          if "list" in vars(cls))
        self.original = self.owner.list
        self.paths = 0

    def __enter__(self):
        original = self.original

        def counting_list(store, prefix=""):
            paths = original(store, prefix)
            if sys.getprofile() is not None:
                self.paths += len(paths)
            return paths

        self.owner.list = counting_list
        return self

    def __exit__(self, *exc):
        self.owner.list = self.original
        return False
