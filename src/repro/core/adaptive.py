"""Adaptive checkpoint-frequency tuning (CheckFreq-style).

The paper's CheckFreq baseline "tunes the checkpointing frequency at
run-time using profiling" [Mohan et al., FAST'21].  This module implements
that behaviour: profile the first iterations to measure the minibatch time
and the per-checkpoint stall, then solve the paper's equation 3 for the
optimal interval given the configured failure rate, and keep re-solving as
the estimates sharpen.

It also exposes the *guesswork problem* the paper argues JIT removes: the
tuner needs a failure-rate estimate, and a wrong one misplaces the
interval (quantified in ``benchmarks/bench_ablation_adaptive.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.model import optimal_checkpoint_frequency


@dataclass
class ProfileStats:
    """Online mean of a duration series."""

    count: int = 0
    total: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no observations yet")
        return self.total / self.count


@dataclass
class AdaptiveIntervalTuner:
    """Re-derives the checkpoint interval from runtime measurements.

    ``failure_rate`` is per GPU per second — the operator's *estimate*,
    which is exactly the guesswork the paper criticises.
    """

    n_gpus: int
    failure_rate: float
    #: Iterations profiled before the first retune.
    warmup_iterations: int = 5
    #: Fallback interval used until profiling produces an estimate.
    initial_interval: int = 50
    minibatch_stats: ProfileStats = field(default_factory=ProfileStats)
    stall_stats: ProfileStats = field(default_factory=ProfileStats)
    retunes: int = 0

    def observe_minibatch(self, seconds: float) -> None:
        self.minibatch_stats.observe(seconds)

    def observe_checkpoint_stall(self, seconds: float) -> None:
        self.stall_stats.observe(seconds)

    @property
    def profiled(self) -> bool:
        return (self.minibatch_stats.count >= self.warmup_iterations
                and self.stall_stats.count >= 1)

    def interval_iterations(self) -> int:
        """Current best interval, in iterations."""
        if not self.profiled:
            return self.initial_interval
        self.retunes += 1
        o = self.stall_stats.mean
        c_star = optimal_checkpoint_frequency(self.n_gpus,
                                              self.failure_rate, o)
        seconds_per_checkpoint = 1.0 / c_star
        iterations = seconds_per_checkpoint / self.minibatch_stats.mean
        return max(1, int(round(iterations)))
