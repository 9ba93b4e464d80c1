"""Host node model: GPUs plus host-side memory, disk and PCIe resources."""

from __future__ import annotations

from typing import Optional

from repro.hardware.gpu import Gpu
from repro.hardware.network import Link
from repro.hardware.specs import NodeSpec
from repro.sim import Environment, Resource, Tracer


class Node:
    """One host with its attached GPUs.

    PCIe is modelled as one shared resource per GPU (each GPU has its own
    x16 slot, so host<->device copies of different GPUs proceed in
    parallel, but two copies to the *same* GPU serialise).  The local disk
    is one shared resource for the whole host.
    """

    def __init__(self, env: Environment, spec: NodeSpec, name: str,
                 uplink: Link, tracer: Optional[Tracer] = None):
        self.env = env
        self.spec = spec
        self.name = name
        self.uplink = uplink
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.gpus: list[Gpu] = [
            Gpu(env, spec.gpu, gpu_id=f"{name}/gpu{i}", tracer=self.tracer)
            for i in range(spec.gpus_per_node)
        ]
        self._pcie = {gpu.gpu_id: Resource(env, capacity=1, name=f"pcie:{gpu.gpu_id}")
                      for gpu in self.gpus}
        self.disk = Resource(env, capacity=1, name=f"disk:{name}")
        self.alive = True

    def pcie_for(self, gpu: Gpu) -> Resource:
        return self._pcie[gpu.gpu_id]

    def kill(self) -> None:
        """Whole-host failure (rare per the paper, but supported)."""
        self.alive = False
        from repro.hardware.gpu import GpuHealth

        for gpu in self.gpus:
            gpu.fail(GpuHealth.DEAD)
        self.tracer.record(self.env.now, self.name, "node_kill")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} {self.spec.name} x{len(self.gpus)}>"
