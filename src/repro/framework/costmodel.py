"""Kernel-duration and state-size model.

Timing follows the standard transformer training FLOP estimate: a forward
pass costs ~2 FLOPs per parameter per token, backward ~4.  A workload's
``tokens_per_rank`` is solved from the paper's measured minibatch time on
the reference hardware (see `repro.workloads`), so our simulated minibatch
times land on the paper's Table 4/5 scale by construction, and everything
derived from them (recovery time, optimal checkpoint frequency, wasted
work) inherits the right magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework.models import ModelConfig
from repro.hardware.specs import GpuSpec


@dataclass(frozen=True)
class TrainingCostModel:
    """Durations and sizes for one model shard on one GPU family."""

    config: ModelConfig
    #: Tokens each rank processes per minibatch (drives compute time).
    tokens_per_rank: int
    #: Fraction of the model this rank holds (1 / (pp * tp), or the FSDP
    #: shard fraction for parameter-sharded layouts).
    model_fraction: float = 1.0

    # -- per-layer kernel durations ------------------------------------------------

    def _layer_flops_forward(self) -> float:
        params_local_layer = self.config.params_per_layer * self.model_fraction
        return 2.0 * params_local_layer * self.tokens_per_rank

    def layer_forward_time(self, gpu: GpuSpec) -> float:
        return self._layer_flops_forward() / gpu.compute_flops

    def layer_backward_time(self, gpu: GpuSpec) -> float:
        return 2.0 * self._layer_flops_forward() / gpu.compute_flops

    def head_forward_time(self, gpu: GpuSpec) -> float:
        """The classification/embedding head: ~20% of one layer."""
        return 0.2 * self.layer_forward_time(gpu)

    def head_backward_time(self, gpu: GpuSpec) -> float:
        return 2.0 * self.head_forward_time(gpu)

    def optimizer_step_time(self, gpu: GpuSpec) -> float:
        """Element-wise Adam update, bound by HBM bandwidth.

        Reads params + grads + m + v and writes params + m + v: about 48
        bytes of traffic per (local) fp32 parameter.
        """
        local_params = self.config.n_params * self.model_fraction
        return 48.0 * local_params / gpu.hbm_bandwidth

    def minibatch_compute_time(self, gpu: GpuSpec) -> float:
        """Fwd + bwd + head + optimizer for this rank's shard (no comm).

        ``layer_*_time`` already carries ``model_fraction``, so summing over
        all ``n_layers`` yields the local shard's total compute whether the
        sharding is by layers (pipeline) or within layers (tensor).
        """
        per_layer = self.layer_forward_time(gpu) + self.layer_backward_time(gpu)
        head = self.head_forward_time(gpu) + self.head_backward_time(gpu)
        return (self.config.n_layers * per_layer
                + head + self.optimizer_step_time(gpu))

    # -- state sizes -------------------------------------------------------------------

    @property
    def param_bytes_local(self) -> int:
        return int(self.config.param_bytes * self.model_fraction)

    @property
    def optimizer_bytes_local(self) -> int:
        return int(self.config.optimizer_bytes * self.model_fraction)

    @property
    def checkpoint_bytes_local(self) -> int:
        """Bytes one rank writes when checkpointing its shard."""
        return self.param_bytes_local + self.optimizer_bytes_local

    @property
    def gradient_bytes_local(self) -> int:
        """fp16 gradients for the local shard (the all-reduce payload)."""
        return self.param_bytes_local

    def layer_param_bytes_local(self) -> int:
        return int(self.config.params_per_layer * self.model_fraction
                   * self.config.bytes_per_param)

    def activation_bytes_per_layer(self) -> int:
        """Activation footprint per layer: ~2 bytes/token * hidden share.

        Small relative to parameters for large models; used for memory
        accounting of the buffers recovery discards.
        """
        hidden_logical = max(1024, int((self.config.n_params / self.config.n_layers
                                        / 12) ** 0.5))
        return int(2 * self.tokens_per_rank * hidden_logical * self.model_fraction)


def solve_tokens_for_minibatch_time(config: ModelConfig, gpu: GpuSpec,
                                    target_seconds: float,
                                    model_fraction: float = 1.0) -> int:
    """Invert the cost model: tokens/rank so a minibatch takes *target_seconds*.

    Used by the workload catalogue to calibrate each Table 2 workload to the
    paper's measured minibatch time.
    """
    local_params = config.n_params * model_fraction
    # fwd+bwd ~ 6 FLOPs/param/token on the local shard; head ≈ 0.6 extra
    # layer-equivalents; optimizer time is token-independent.
    probe = TrainingCostModel(config, tokens_per_rank=1,
                              model_fraction=model_fraction)
    opt_time = probe.optimizer_step_time(gpu)
    compute_budget = max(target_seconds - opt_time, 1e-4)
    flops_per_token = 6.0 * local_params * (1.0 + 0.2 / config.n_layers)
    tokens = compute_budget * gpu.compute_flops / flops_per_token
    return max(1, int(round(tokens)))
