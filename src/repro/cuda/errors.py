"""CUDA error codes and exceptions for the simulated runtime."""

from __future__ import annotations

import enum


class CudaError(enum.Enum):
    """Subset of ``cudaError_t`` relevant to failure recovery."""

    SUCCESS = "cudaSuccess"
    NOT_READY = "cudaErrorNotReady"
    #: Unrecoverable hardware fault (maps to ECC / device-lost errors).
    DEVICE_LOST = "cudaErrorDeviceLost"
    #: A prior error poisoned the context; every call now fails ("sticky").
    STICKY = "cudaErrorStickyContext"
    #: Driver state corruption suspected; device memory is still readable.
    DRIVER_CORRUPT = "cudaErrorDriverCorruption"
    INVALID_HANDLE = "cudaErrorInvalidResourceHandle"
    INVALID_VALUE = "cudaErrorInvalidValue"


class CudaApiError(Exception):
    """Raised by simulated CUDA APIs when they return a non-success code.

    The transparent interception layer catches these so the application
    never observes them; in the user-level design they propagate into the
    training script like a real failed CUDA call would.
    """

    def __init__(self, code: CudaError, detail: str = ""):
        super().__init__(f"{code.value}: {detail}" if detail else code.value)
        self.code = code
        self.detail = detail
