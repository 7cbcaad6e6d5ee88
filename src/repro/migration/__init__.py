"""RAID level migration: conversion plans, approaches, execution engine."""

from repro.migration.approaches import APPROACHES, build_plan, supported_conversions
from repro.migration.engine import (
    ConversionResult,
    execute_plan,
    prepare_source_array,
    verify_conversion,
)
from repro.migration.ops import IOOp, OpKind, Purpose
from repro.migration.plan import ConversionPlan, GroupWork, Location

__all__ = [
    "APPROACHES",
    "build_plan",
    "supported_conversions",
    "ConversionPlan",
    "GroupWork",
    "Location",
    "IOOp",
    "OpKind",
    "Purpose",
    "ConversionResult",
    "execute_plan",
    "prepare_source_array",
    "verify_conversion",
]

from repro.migration.approaches import alignment_cycle, canonical_disks, conversions_for_n
from repro.migration.online import (
    DiskFailureEvent,
    OnlineCode56Conversion,
    OnlineReport,
    OnlineRequest,
)

__all__ += [
    "alignment_cycle",
    "canonical_disks",
    "conversions_for_n",
    "DiskFailureEvent",
    "OnlineCode56Conversion",
    "OnlineReport",
    "OnlineRequest",
]

from repro.migration.batch import RunProgram, fused_run_usable

__all__ += ["RunProgram", "fused_run_usable"]
