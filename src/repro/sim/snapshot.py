"""Copy-on-write simulation snapshots via ``os.fork``.

The simulator's state is a web of live Python generators (every process
is one), which cannot be pickled or deep-copied.  What *can* snapshot
them — cheaply, and with perfect fidelity — is the operating system:
``os.fork`` gives the child a copy-on-write image of the entire
interpreter, generators, heap and event queue included.  Prefix-fork
campaign scheduling builds on this: the parent simulates the common
failure-free prefix of a scenario group once, then forks one child per
scenario at its first-failure time; each child arms its own failure
schedule and runs the divergent tail, returning its (small, picklable)
result over a pipe.

Unavailable on platforms without ``fork`` (the caller falls back to
from-scratch execution; results are byte-identical either way, fork is
purely a wall-clock optimisation).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import traceback
from typing import Any, Callable, Optional

HAVE_FORK = hasattr(os, "fork")

_LEN = struct.Struct("<Q")


class BranchError(RuntimeError):
    """A forked branch raised; carries the child's formatted traceback."""


def _write_payload(fd: int, payload: bytes) -> None:
    view = memoryview(_LEN.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _read_payload(fd: int) -> Optional[bytes]:
    buf = io.BytesIO()
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf.write(chunk)
    data = buf.getvalue()
    if len(data) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(data)
    if len(data) < _LEN.size + length:
        return None
    return data[_LEN.size:_LEN.size + length]


class ForkBranch:
    """One forked child evaluating ``fn()`` and shipping the result back.

    The child runs concurrently with the parent from the moment of
    construction; :meth:`result` blocks until it exits.  The child leaves
    via ``os._exit`` so no parent atexit hooks or buffer flushes run
    twice.
    """

    def __init__(self, fn: Callable[[], Any]):
        if not HAVE_FORK:  # pragma: no cover - non-POSIX
            raise RuntimeError("os.fork unavailable")
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            code = 0
            try:
                payload = pickle.dumps((True, fn()),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()),
                                       protocol=pickle.HIGHEST_PROTOCOL)
                code = 1
            try:
                _write_payload(write_fd, payload)
                os.close(write_fd)
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid = pid
        self._read_fd: Optional[int] = read_fd
        self._result: Any = None
        self._done = False

    def result(self) -> Any:
        """Wait for the child and return ``fn()``'s value (or raise)."""
        if self._done:
            if isinstance(self._result, BranchError):
                raise self._result
            return self._result
        assert self._read_fd is not None
        try:
            payload = _read_payload(self._read_fd)
        finally:
            os.close(self._read_fd)
            self._read_fd = None
        os.waitpid(self.pid, 0)
        self._done = True
        if payload is None:
            self._result = BranchError(
                f"forked branch pid {self.pid} died without a result")
            raise self._result
        ok, value = pickle.loads(payload)
        if not ok:
            self._result = BranchError(
                f"forked branch pid {self.pid} failed:\n{value}")
            raise self._result
        self._result = value
        return value

