"""Host provenance and same-run roofline probes.

The ceilings every kernel and compiled rate is divided by are measured
in the same process, right before the workload runs — never read from a
file another run wrote.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

import repro
from repro.kernels import available_kernels, kernel_info

BLOCK = 4096
#: k-way chain shape of Code 5-6 at p=13: p-2 data sources per diagonal
#: parity plus the parity itself
CHAIN_WAYS = 12
#: destination tile of the fused executor (rows of BLOCK bytes)
TILE_ROWS = 32
#: reductions per timed repeat (about 50 ms each)
PROBE_TILES = 400


def _best_rate(run, nbytes: int, repeats: int) -> float:
    """Highest rate over ``repeats`` timed calls of ``run``, in GB/s."""
    best = 0.0
    for _ in range(repeats):
        t0 = perf_counter()
        run()
        best = max(best, nbytes / (perf_counter() - t0))
    return best / 1e9


def roofline(repeats: int = 7) -> dict[str, float]:
    """Same-run ceilings at the fused chain shape, in GB/s.

    ``CHAIN_WAYS`` strided source regions of ``TILE_ROWS`` 4 KiB blocks
    (1.5 MiB, resident in L2) are folded into one destination tile
    (``xor_reduce``) or copied into it one by one (``memcpy``); both
    rates count source bytes consumed.  The best of several repeats is
    the ceiling.
    """
    stride = CHAIN_WAYS + 1
    blocks = np.random.default_rng(0).integers(
        0, 256, size=(stride * TILE_ROWS, BLOCK), dtype=np.uint8
    )
    srcs = [blocks[k::stride] for k in range(CHAIN_WAYS)]
    out = np.empty((TILE_ROWS, BLOCK), dtype=np.uint8)
    nbytes = PROBE_TILES * CHAIN_WAYS * out.nbytes

    def xor_reduce() -> None:
        for _ in range(PROBE_TILES):
            np.bitwise_xor(srcs[0], srcs[1], out=out)
            for s in srcs[2:]:
                np.bitwise_xor(out, s, out=out)

    def memcpy() -> None:
        for _ in range(PROBE_TILES):
            for s in srcs:
                np.copyto(out, s)

    return {
        "roofline.memcpy_GBps": _best_rate(memcpy, nbytes, repeats),
        "roofline.xor_reduce_GBps": _best_rate(xor_reduce, nbytes, repeats),
    }


class HostReference:
    """A fixed reference computation, timed next to every measured sample.

    The host's speed drifts by 10-25% over seconds to minutes, for
    interpreter-bound and memory-bound work alike.  Dividing a sample's
    time by the time of this fixed mix of both kinds of work, measured
    just before it, cancels most of that drift.  The mix is bench-owned
    code, so no change to the program moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._blocks = rng.integers(0, 256, size=(64, BLOCK), dtype=np.uint8)
        self._big = rng.integers(0, 256, size=16 << 20, dtype=np.uint8)
        self._out = np.empty_like(self._big)
        self.seconds()  # fault the output pages in; every timed pass is warm

    def seconds(self) -> float:
        """Time one pass: 3000 interpreted 4 KiB XORs, then a 16 MB copy and XOR."""
        t0 = perf_counter()
        acc = np.zeros(BLOCK, dtype=np.uint8)
        slots: dict[int, int] = {}
        for i in range(3000):
            np.bitwise_xor(acc, self._blocks[i & 63], out=acc)
            slots[i % 7] = i
        np.copyto(self._out, self._big)
        np.bitwise_xor(self._out, self._big, out=self._out)
        return perf_counter() - t0


def _cache_bytes(level: int) -> int | None:
    """Per-core cache size of ``level`` from sysfs (None when unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() != str(level):
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip().upper()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return None
    return None


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(root: Path, working_sets: dict[str, int]) -> dict:
    """Host fingerprint plus each working set against the caches."""
    l2, l3 = _cache_bytes(2), _cache_bytes(3)

    def versus(nbytes: int) -> dict:
        return {
            "bytes": nbytes,
            "x_l2": nbytes / l2 if l2 else None,
            "x_l3": nbytes / l3 if l3 else None,
        }

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "kernels_available": available_kernels(),
        "kernels": kernel_info(),
        "git_sha": _git_sha(root),
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "working_sets": {name: versus(n) for name, n in working_sets.items()},
    }
