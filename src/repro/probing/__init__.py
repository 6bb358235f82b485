"""Probing layer: the raw-socket/scapy stand-in used by every tool.

Provides :class:`~repro.probing.prober.Prober` (direct/indirect probes with
retry, caching and metering), probe budgets and statistics, and the Doubletree-style
:class:`~repro.probing.stopset.StopSet` for cross-trace redundancy
elimination.
"""

from .budget import ProbeBudget, ProbeBudgetExceeded, ProbeStats
from .prober import Prober, RetryPolicy
from .stopset import (
    DEFAULT_STOP_PREFIX_LENGTH,
    StopSet,
    merge_stop_sets,
)

__all__ = [
    "DEFAULT_STOP_PREFIX_LENGTH",
    "ProbeBudget",
    "ProbeBudgetExceeded",
    "ProbeStats",
    "Prober",
    "RetryPolicy",
    "StopSet",
    "merge_stop_sets",
]
