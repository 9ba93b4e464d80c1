"""Resume planning and retention over a validated checkpoint registry.

The planner answers the question every restart path used to answer with
a blind ``read(latest)``: *which checkpoint iteration do we resume
from?* — but consults the manifest validator first, so a corrupt newest
checkpoint (torn upload that somehow published, bit rot at rest) is
quarantined and the plan falls back to the newest iteration every shard
can still restore with integrity.

Policies:

``latest_valid``
    Newest iteration at which *every* shard has at least one checkpoint
    that passes manifest validation.  The default.
``last_known_good``
    The newest iteration a previous plan verified, re-validated now; if
    it no longer holds (rot since), falls back to ``latest_valid``.
``newest_before``
    Newest valid consistent iteration strictly below a given bound —
    the "roll back before the bad update" escape hatch.

Retention (:class:`RetentionPolicy`) is the GC-side twin: keep-last-N /
keep-every-K thinning that must never collect the last valid restore
point — the registry's GC consults the same validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Recognised planner policies.
PLAN_POLICIES = ("latest_valid", "last_known_good", "newest_before")


@dataclass(frozen=True)
class RetentionPolicy:
    """Keep-last-N / keep-every-K checkpoint thinning."""

    keep_last: int = 2
    #: Additionally keep every K-th iteration forever (None disables).
    keep_every: Optional[int] = None

    def __post_init__(self):
        if self.keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if self.keep_every is not None and self.keep_every < 1:
            raise ValueError("keep_every must be >= 1 (or None)")

    def kept(self, iterations: Iterable[int]) -> set[int]:
        """The iterations this policy retains, newest-first keep-last."""
        ordered = sorted(set(iterations), reverse=True)
        keep = set(ordered[:self.keep_last])
        if self.keep_every is not None:
            keep.update(i for i in ordered if i % self.keep_every == 0)
        return keep


@dataclass
class PlanDecision:
    """One resume-target choice, with everything audits need."""

    policy: str
    #: Chosen resume iteration (None = no valid checkpoint: cold start).
    iteration: Optional[int]
    #: shard_id -> chosen (validated) checkpoint key.
    keys: dict = field(default_factory=dict)
    time: float = 0.0
    #: Data paths the plan rejected (failed validation, now quarantined).
    rejected: tuple[str, ...] = ()


class ResumePlanner:
    """Validated restore-point selection for one registry."""

    def __init__(self, registry, policy: str = "latest_valid"):
        if policy not in PLAN_POLICIES:
            raise ValueError(f"unknown plan policy {policy!r}; "
                             f"choose from {PLAN_POLICIES}")
        self.registry = registry
        self.policy = policy
        self.decisions: list[PlanDecision] = []
        #: Newest iteration a previous plan verified for a shard set.
        self._known_good: dict[frozenset, int] = {}

    # -- planning ------------------------------------------------------------------

    def plan(self, shard_ids: Iterable[str], policy: Optional[str] = None,
             before_iteration: Optional[int] = None) -> PlanDecision:
        """Pick (and record) the resume target for *shard_ids*.

        Every key in the returned decision passed manifest validation at
        plan time; invalid candidates encountered along the way were
        quarantined.  ``iteration is None`` means cold start.
        """
        policy = policy or self.policy
        if policy not in PLAN_POLICIES:
            raise ValueError(f"unknown plan policy {policy!r}")
        shards = sorted(set(shard_ids))
        rejected_before = len(self.registry.validator.quarantined)
        bound = before_iteration
        iteration = None
        if policy == "last_known_good":
            remembered = self._known_good.get(frozenset(shards))
            if remembered is not None:
                iteration = self._resolve(shards, remembered + 1)
                if iteration is not None and iteration > remembered:
                    iteration = self._resolve_exact(shards, remembered)
        if iteration is None:
            iteration = self._resolve(shards, bound)
        keys = {}
        if iteration is not None:
            for shard in shards:
                key = self.registry.valid_checkpoint_at(shard, iteration)
                if key is None:    # rot raced the scan: replan lower
                    return self.plan(shards, policy=policy,
                                     before_iteration=iteration)
                keys[shard] = key
            self._known_good[frozenset(shards)] = iteration
        rejected = tuple(
            rec.data_path for rec in
            self.registry.validator.quarantined[rejected_before:])
        decision = PlanDecision(policy=policy, iteration=iteration,
                                keys=keys, time=self.registry.store.env.now,
                                rejected=rejected)
        self.decisions.append(decision)
        return decision

    # -- internals --------------------------------------------------------------------

    def _resolve(self, shards: list[str],
                 bound: Optional[int]) -> Optional[int]:
        """Newest iteration < *bound* (or any) valid across all shards."""
        common = None
        for shard in shards:
            iterations = {
                i for i in self.registry.iterations_for(shard)
                if bound is None or i < bound}
            common = iterations if common is None else common & iterations
            if not common:
                return None
        for iteration in sorted(common, reverse=True):
            if all(self.registry.valid_checkpoint_at(s, iteration) is not None
                   for s in shards):
                return iteration
        return None

    def _resolve_exact(self, shards: list[str],
                       iteration: int) -> Optional[int]:
        if all(self.registry.valid_checkpoint_at(s, iteration) is not None
               for s in shards):
            return iteration
        return None
