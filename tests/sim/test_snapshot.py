"""Forked copy-on-write branches: a child that fails, fails the parent loudly."""

import os

import pytest

from repro.sim.snapshot import HAVE_FORK, BranchError, ForkBranch

pytestmark = pytest.mark.skipif(not HAVE_FORK, reason="os.fork unavailable")


def test_branch_that_raises_carries_child_traceback():
    def boom():
        raise ValueError("tail diverged in child")

    branch = ForkBranch(boom)
    with pytest.raises(BranchError, match="failed") as info:
        branch.result()
    message = str(info.value)
    assert "Traceback" in message
    assert "ValueError: tail diverged in child" in message
    # The error is kept: asking again raises it again, never a value.
    with pytest.raises(BranchError, match="tail diverged"):
        branch.result()


def test_branch_that_exits_without_result_is_an_error():
    branch = ForkBranch(lambda: os._exit(3))
    with pytest.raises(BranchError, match="died without a result"):
        branch.result()
