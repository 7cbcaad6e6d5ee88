"""Typed fault exceptions raised by the injection plane.

Every failure mode the plane models surfaces as its own exception type,
so callers can distinguish "retry won't help" (:class:`ReadFaultError` —
a latent sector error / URE), "the retry budget ran out"
(:class:`TransientIOError`), and "the process died"
(:class:`ConversionCrash`) without string matching.  Whole-disk failures
reuse :class:`repro.raid.array.DiskFailure`, the array's own failure
type, so existing degraded-mode handling keeps working unchanged.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "ReadFaultError",
    "TransientIOError",
    "ConversionCrash",
]


class FaultError(Exception):
    """Base class of every injected-fault exception."""

    #: set by a bulk read: indices of every element the plane refused
    faulted = None


class ReadFaultError(FaultError):
    """A latent sector error (URE): the block is unreadable.

    Retrying does not help — the medium is bad until the block is
    rewritten (drives remap the sector on write).  Callers recover by
    reconstructing the block from redundancy (see
    :class:`repro.faults.degraded.ReconstructingReader`).
    """

    def __init__(self, disk: int, block: int):
        super().__init__(f"unrecoverable read error at disk {disk}, block {block}")
        self.disk = disk
        self.block = block


class TransientIOError(FaultError):
    """A transient I/O error that persisted past the retry budget.

    The plane retries transient faults internally according to the
    scenario's :class:`~repro.faults.spec.RetryPolicy`; this is only
    raised once ``max_retries`` consecutive attempts have failed.
    """

    def __init__(self, disk: int, block: int, attempts: int):
        super().__init__(
            f"I/O to disk {disk}, block {block} still failing after "
            f"{attempts} attempt(s)"
        )
        self.disk = disk
        self.block = block
        self.attempts = attempts


class ConversionCrash(FaultError):
    """The conversion process died at a crash point.

    Raised *instead of completing* the op at the armed crashable-event
    index: the interrupted op is never counted, and for a torn write only
    the scenario's ``crash_tear`` fraction of the payload reached the
    platter.  Catch it at the harness level and resume from the journal.
    """

    def __init__(self, at_event: int, label: str = ""):
        where = f" ({label})" if label else ""
        super().__init__(f"conversion crashed at crashable event {at_event}{where}")
        self.at_event = at_event
        self.label = label
