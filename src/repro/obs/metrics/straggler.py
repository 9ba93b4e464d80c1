"""Per-rank rolling iteration-time statistics and z-score straggler alerts.

A *straggler* is a rank whose recent iterations run significantly slower
than its peers' — the symptom that precedes most NCCL timeout storms
(every collective waits for the slow rank, so the fleet's rendezvous
wait inflates long before anything errors).  The detector keeps a
rolling window of iteration durations per rank and compares each rank's
window mean against the distribution of its *peers'* window means: a
z-score above the threshold raises an alert, with hysteresis (half the
threshold) so one boundary-hopping rank does not re-alert every
iteration.

Works streaming (``observe`` per finished iteration) or post-hoc over a
strategy run's iteration spans (:func:`detect_stragglers`).  With a
registry in hand, alerts also feed the ``repro_straggler_alerts``
counter so dashboards can plot them next to the rendezvous-wait
histogram they predict.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics.registry import MetricsRegistry

#: Guard band for the peer-deviation floor: perfectly homogeneous
#: simulated ranks have zero variance, and a zero std would turn any
#: epsilon of skew into an infinite z-score.
_REL_STD_FLOOR = 1e-3


class RollingStats:
    """Mean/std over the last *window* observations (population std)."""

    __slots__ = ("_window", "_sum", "_sumsq")

    def __init__(self, window: int):
        if window < 2:
            raise ValueError("window must be >= 2")
        self._window = deque(maxlen=window)
        self._sum = 0.0
        self._sumsq = 0.0

    def push(self, value: float) -> None:
        if len(self._window) == self._window.maxlen:
            old = self._window[0]
            self._sum -= old
            self._sumsq -= old * old
        self._window.append(value)
        self._sum += value
        self._sumsq += value * value

    @property
    def count(self) -> int:
        return len(self._window)

    @property
    def mean(self) -> float:
        return self._sum / len(self._window) if self._window else 0.0

    @property
    def std(self) -> float:
        n = len(self._window)
        if n < 2:
            return 0.0
        variance = max(0.0, self._sumsq / n - self.mean ** 2)
        return math.sqrt(variance)

    def snapshot(self) -> dict:
        return {"count": self.count, "mean": self.mean, "std": self.std}


@dataclass(frozen=True)
class StragglerAlert:
    """One rank crossing the straggler threshold at a point in sim time."""

    rank: str
    time: float
    iteration_seconds: float
    rank_mean: float
    peer_mean: float
    peer_std: float
    zscore: float

    def describe(self) -> str:
        return (f"rank {self.rank} straggling at t={self.time:.2f}: "
                f"rolling mean {self.rank_mean * 1e3:.1f} ms vs peers "
                f"{self.peer_mean * 1e3:.1f} ms (z={self.zscore:.1f})")


class StragglerDetector:
    """Cross-rank z-score detector over rolling iteration-time windows."""

    def __init__(self, window: int = 16, threshold: float = 3.0,
                 min_samples: int = 4,
                 registry: Optional[MetricsRegistry] = None,
                 extra_labels: Optional[dict] = None):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.window = window
        self.threshold = threshold
        self.min_samples = max(2, min_samples)
        self.registry = registry
        #: Extra label values stamped on the alert counter (e.g. the
        #: strategy, when one registry spans several runs).
        self.extra_labels = dict(extra_labels or {})
        self.alerts: list[StragglerAlert] = []
        self._stats: dict[str, RollingStats] = {}
        self._flagged: set[str] = set()

    def _peer_score(self, rank: str
                    ) -> Optional[tuple[float, float, float]]:
        """(zscore, peer_mean, floored_peer_std) or None if too few samples."""
        mine = self._stats[rank]
        if mine.count < self.min_samples:
            return None
        peers = [s.mean for r, s in self._stats.items()
                 if r != rank and s.count >= self.min_samples]
        if len(peers) < 2:
            return None
        peer_mean = sum(peers) / len(peers)
        peer_var = sum((m - peer_mean) ** 2 for m in peers) / len(peers)
        floor = max(_REL_STD_FLOOR * peer_mean, 1e-12)
        peer_std = max(math.sqrt(peer_var), floor)
        return (mine.mean - peer_mean) / peer_std, peer_mean, peer_std

    def observe(self, rank: str, seconds: float,
                time: float = 0.0) -> Optional[StragglerAlert]:
        """Record one finished iteration; returns an alert when raised."""
        rank = str(rank)
        stats = self._stats.get(rank)
        if stats is None:
            stats = self._stats[rank] = RollingStats(self.window)
        stats.push(seconds)
        score = self._peer_score(rank)
        if score is None:
            return None
        z, peer_mean, peer_std = score
        if z < self.threshold / 2 and rank in self._flagged:
            self._flagged.discard(rank)
        if z < self.threshold or rank in self._flagged:
            return None
        self._flagged.add(rank)
        alert = StragglerAlert(rank=rank, time=time,
                               iteration_seconds=seconds,
                               rank_mean=stats.mean, peer_mean=peer_mean,
                               peer_std=peer_std, zscore=z)
        self.alerts.append(alert)
        if self.registry is not None:
            labelnames = ("rank",) + tuple(sorted(self.extra_labels))
            self.registry.counter(
                "repro_straggler_alerts",
                "ranks crossing the rolling z-score straggler threshold",
                labelnames).labels(rank=rank, **self.extra_labels).inc()
        return alert


def detect_stragglers(run, window: int = 16, threshold: float = 3.0,
                      min_samples: int = 4,
                      registry: Optional[MetricsRegistry] = None,
                      extra_labels: Optional[dict] = None,
                      ) -> StragglerDetector:
    """Replay a strategy run's iteration spans through a detector.

    Spans are fed in completion order, exactly as a live detector would
    have seen them.
    """
    detector = StragglerDetector(window=window, threshold=threshold,
                                 min_samples=min_samples, registry=registry,
                                 extra_labels=extra_labels)
    spans = [span for span in run.tracer.filter_spans(name="iteration")
             if span.end is not None]
    spans.sort(key=lambda span: (span.end, span.actor))
    for span in spans:
        detector.observe(span.actor, span.duration, time=span.end)
    return detector
