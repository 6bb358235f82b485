"""The probe-transport layer: the seam between collectors and the network.

Collectors speak :class:`~repro.transport.base.ProbeTransport` —
``send(Probe) -> Optional[Response]`` plus a capability descriptor — and
never name a backend.  Shipped backends:

* :class:`SimulatorTransport` — the deterministic forwarding engine;
* :class:`RecordingTransport` — journals every exchange to JSONL;
* :class:`ReplayTransport` — re-serves a journal with no network at all;
* :class:`FaultInjectingTransport` — seeded drops/blackholes/loss bursts;
* :class:`MutatingTransport` — fires seeded topology mutations at probe
  epochs (the radar churn seam).
"""

from .base import (
    ProbeTransport,
    TransportCapabilities,
    as_transport,
    backend_metrics,
    collect_backend_metrics,
)
from .churn import MutatingTransport
from .fault import FaultInjectingTransport
from .journal import (
    JournalError,
    RecordingTransport,
    ReplayExhausted,
    ReplayMismatch,
    ReplayTransport,
)
from .simulator import SimulatorTransport

__all__ = [
    "FaultInjectingTransport",
    "JournalError",
    "MutatingTransport",
    "ProbeTransport",
    "RecordingTransport",
    "ReplayExhausted",
    "ReplayMismatch",
    "ReplayTransport",
    "SimulatorTransport",
    "TransportCapabilities",
    "as_transport",
    "backend_metrics",
    "collect_backend_metrics",
]
