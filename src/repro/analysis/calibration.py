"""Calibrating the analytical model from the simulated system.

The Section 5/6.5 analysis needs per-workload constants: the checkpoint
overhead ``o``, fixed recovery cost ``r`` and minibatch time ``m``.  The
paper reads them off its Table 4 measurements; we derive them from the
same quantities our simulation produces, analytically from the hardware
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.model import CostParameters
from repro.cluster.worker import InitCosts
from repro.hardware.specs import SHARED_STORE_BANDWIDTH
from repro.workloads.catalog import WorkloadSpec

#: The paper's reference failure rate: ~2 failures/day on 992 GPUs (OPT
#: training, Section 5.1), i.e. ~2e-3 per GPU per day.
OPT_FAILURE_RATE_PER_GPU_PER_DAY = 2.0 / 992.0


@dataclass(frozen=True)
class CalibratedParameters:
    """CostParameters plus provenance for one workload."""

    spec_name: str
    params: CostParameters

    @classmethod
    def from_spec(cls, spec: WorkloadSpec,
                  failure_rate_per_gpu_per_day: float =
                  OPT_FAILURE_RATE_PER_GPU_PER_DAY,
                  init_costs: InitCosts | None = None,
                  store_bandwidth: float = SHARED_STORE_BANDWIDTH,
                  jit_steady_overhead: float = 0.0) -> "CalibratedParameters":
        """Derive o, r, m analytically from the workload's hardware model.

        * ``o`` — one JIT/periodic checkpoint: device->host copy of the
          shard plus the persistent-store write;
        * ``r`` — job restart fixed cost: process/framework/data init plus
          reading the checkpoint back and re-uploading to the GPU;
        * ``m`` — the paper-calibrated minibatch time.
        """
        cost = spec.cost_model()
        nbytes = cost.checkpoint_bytes_local
        gpu = spec.node_spec.gpu
        init = init_costs or InitCosts()
        o = nbytes / gpu.pcie_bandwidth + nbytes / store_bandwidth
        r = (init.total
             + nbytes / store_bandwidth       # checkpoint download
             + nbytes / gpu.pcie_bandwidth)   # upload back to device
        return cls(spec_name=spec.name, params=CostParameters(
            checkpoint_overhead=o,
            failure_rate=failure_rate_per_gpu_per_day / 86400.0,
            fixed_recovery=r,
            minibatch_time=spec.minibatch_time,
            jit_steady_overhead=jit_steady_overhead))
