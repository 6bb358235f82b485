"""The simulator backend: a ProbeTransport over :class:`~repro.netsim.engine.Engine`.

This is the only module above the seam that touches the engine; collectors
built from an ``Engine`` are silently wrapped in a
:class:`SimulatorTransport` by :func:`~repro.transport.base.as_transport`,
which keeps probe counts and archives bit-identical to the pre-seam code
path (the wrapper adds nothing but the capability descriptor).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..netsim.engine import Engine
from ..netsim.packet import Probe, Response
from .base import TransportCapabilities

_SIMULATOR_CAPS = TransportCapabilities(
    name="simulator",
    deterministic=True,
    supports_record_route=True,
    live_network=False,
)


class SimulatorTransport:
    """Adapts the deterministic forwarding engine onto the transport seam."""

    def __init__(self, engine: Engine):
        self.engine = engine

    def send(self, probe: Probe) -> Optional[Response]:
        return self.engine.send(probe)

    def send_many(self, probes: Sequence[Probe]) -> List[Optional[Response]]:
        """Kept only as a name the perfbench layer tracer wraps; unused."""
        return [self.send(probe) for probe in probes]

    def capabilities(self) -> TransportCapabilities:
        return _SIMULATOR_CAPS

    def idle(self, ticks: int = 1) -> None:
        """Advance the engine clock without probing (retry backoff)."""
        self.engine.idle(ticks)

    def source_address(self, host_id: str) -> int:
        hosts = self.engine.topology.hosts
        if host_id not in hosts:
            raise ValueError(f"unknown vantage host {host_id!r}")
        return hosts[host_id].address

    def backend_metrics(self) -> dict:
        """Engine counters — the only route
        by which ``engine.stats`` reaches the metrics layer (which is
        sealed off from ``netsim.engine``)."""
        return self.engine.stats.snapshot()

    def close(self) -> None:
        """The engine holds no external resources."""
