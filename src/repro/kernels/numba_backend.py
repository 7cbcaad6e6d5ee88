"""Optional numba-JIT backend.

Import of :mod:`numba` is deferred and failure-tolerant: on hosts
without numba the class still imports and registers, but
:meth:`NumbaXorKernel.is_available` reports ``False`` and construction
raises :class:`~repro.kernels.base.KernelUnavailableError`.  The CI
kernels job is the only environment expected to install numba; the
default test environment stays dependency-free.

When numba is present the kernels reinterpret the uint8 regions as
``uint64`` words whenever the block width is 8-byte aligned, XOR eight
bytes per op, and parallelise across destination rows with ``prange``.
XOR is associative and commutative, so word width and row order cannot
change the produced bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.base import KernelUnavailableError, XorKernel

__all__ = ["NumbaXorKernel"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the common case in dev envs
    _numba = None

_JITTED: dict | None = None


def _build_jitted() -> dict:  # pragma: no cover - requires numba
    """Compile the kernels once per process, lazily."""
    njit = _numba.njit
    prange = _numba.prange

    @njit(parallel=True, cache=True)
    def reduce_rows(dst, srcs, init):
        n_src = len(srcs)
        for r in prange(dst.shape[0]):
            row = dst[r]
            start = 0
            if init:
                first = srcs[0]
                src_row = first[r % first.shape[0]]
                for c in range(row.shape[0]):
                    row[c] = src_row[c]
                start = 1
            for s in range(start, n_src):
                src = srcs[s]
                src_row = src[r % src.shape[0]]
                for c in range(row.shape[0]):
                    row[c] ^= src_row[c]

    @njit(parallel=True, cache=True)
    def scatter_rows(dst, rows, payload):
        for i in prange(rows.shape[0]):
            out = dst[rows[i]]
            src = payload[i]
            for c in range(out.shape[0]):
                out[c] ^= src[c]

    return {"reduce": reduce_rows, "scatter": scatter_rows}


def _as_words(arr: np.ndarray) -> np.ndarray:  # pragma: no cover - requires numba
    """Reinterpret an 8-byte-aligned uint8 region as uint64 words."""
    if arr.ndim == 1:
        return arr.view(np.uint64) if arr.flags.c_contiguous else arr
    return arr.view(np.uint64)


class NumbaXorKernel(XorKernel):
    """JIT tier: word-wide, row-parallel XOR via numba ``prange``."""

    name = "numba"

    def __init__(self) -> None:
        if _numba is None:
            raise KernelUnavailableError(
                "kernel backend 'numba' needs the numba package "
                "(pip install numba); falling back is the caller's job"
            )
        global _JITTED
        if _JITTED is None:  # pragma: no cover - requires numba
            _JITTED = _build_jitted()

    @classmethod
    def is_available(cls) -> bool:
        return _numba is not None

    @classmethod
    def capabilities(cls) -> dict:
        caps = {
            "name": cls.name,
            "available": cls.is_available(),
            "tier": "numba-jit",
            "parallel": True,
        }
        if _numba is not None:  # pragma: no cover - requires numba
            caps["numba_version"] = _numba.__version__
        return caps

    # The jitted reducer indexes sources as ``src[r % src.shape[0]]`` so a
    # broadcast (single-row) operand works without materialising; arbitrary
    # strided views are passed through as-is (numba handles strides).
    def region_xor_reduce(
        self,
        dst: np.ndarray,
        sources: Sequence[np.ndarray],
        init: bool = True,
    ) -> None:  # pragma: no cover - requires numba
        if len(sources) == 0:
            if init:
                dst[...] = 0
            return
        rows = dst.shape[0]
        width = dst.shape[1]
        use_words = width % 8 == 0 and all(
            s.shape[-1] == width and s.strides[-1] == 1 for s in sources
        )
        if use_words:
            dst_v = _as_words(dst)
            srcs = tuple(
                np.ascontiguousarray(s if s.ndim == 2 else s.reshape(1, -1)).view(np.uint64)
                for s in sources
            )
        else:
            dst_v = dst
            srcs = tuple(
                np.ascontiguousarray(s if s.ndim == 2 else s.reshape(1, -1)) for s in sources
            )
        # Guard: the row-recycling index trick is only valid for full-height
        # or single-row operands.
        if any(s.shape[0] not in (1, rows) for s in srcs):
            raise ValueError("sources must have 1 or rows rows")
        _JITTED["reduce"](dst_v, srcs, init)

    def scatter_xor(
        self, dst: np.ndarray, rows: np.ndarray, payload: np.ndarray
    ) -> None:  # pragma: no cover - requires numba
        width = dst.shape[1]
        if width % 8 == 0 and payload.strides[-1] == 1:
            _JITTED["scatter"](
                _as_words(dst), rows, np.ascontiguousarray(payload).view(np.uint64)
            )
        else:
            _JITTED["scatter"](dst, rows, np.ascontiguousarray(payload))
