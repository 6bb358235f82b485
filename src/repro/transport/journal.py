"""Probe journals: record every exchange, replay it without a network.

A journal is a JSONL file — one header line, then one line per vantage
resolution and per probe/response exchange, in wire order.  Recording makes
a collection run fully auditable ("A Radar for the Internet": repeated
measurements are only comparable when each run's probe stream is recorded);
replaying re-serves the journal deterministically with zero simulator (or
network) involvement, so a collection can be re-run, unit-tested, and
debugged offline.  Replay is strict: a probe that does not match the next
journaled exchange fails loudly instead of returning a plausible answer.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Sequence, Union

from ..netsim.addressing import format_ip, parse_ip
from ..netsim.packet import Probe, Response, ResponseType
from .base import ProbeTransport, TransportCapabilities, send_batch

JOURNAL_FORMAT = "tracenet-journal"
JOURNAL_VERSION = 1

#: The probe fields replay matches on.  ``probe_id`` is deliberately not
#: one of them: it is a process-global counter with no wire meaning.
MATCHED_PROBE_FIELDS = ("src", "dst", "ttl", "protocol", "flow_id",
                       "record_route")


class JournalError(RuntimeError):
    """A malformed journal file."""


class ReplayMismatch(RuntimeError):
    """A replayed probe diverged from the recorded exchange stream."""


class ReplayExhausted(ReplayMismatch):
    """More probes were sent than the journal recorded."""


# -- wire representation ------------------------------------------------------


def probe_to_dict(probe: Probe) -> Dict:
    return {
        "src": format_ip(probe.src),
        "dst": format_ip(probe.dst),
        "ttl": probe.ttl,
        "protocol": probe.protocol.value,
        "flow_id": probe.flow_id,
        "record_route": probe.record_route,
        "probe_id": probe.probe_id,
    }


def response_to_dict(response: Response) -> Dict:
    return {
        "kind": response.kind.value,
        "source": format_ip(response.source),
        "responder": response.responder,
        "ip_id": response.ip_id,
        "record_route": [format_ip(stamp) for stamp in response.record_route],
    }


def response_from_dict(payload: Dict, probe: Probe) -> Response:
    """Rebuild a recorded response, bound to the probe being replayed."""
    return Response(
        kind=ResponseType(payload["kind"]),
        source=parse_ip(payload["source"]),
        probe=probe,
        responder=payload.get("responder"),
        ip_id=payload.get("ip_id"),
        record_route=tuple(parse_ip(stamp)
                           for stamp in payload.get("record_route", [])),
    )


def _match_key(payload: Dict) -> tuple:
    return tuple(payload[field] for field in MATCHED_PROBE_FIELDS)


# -- recording ----------------------------------------------------------------


class RecordingTransport:
    """Wraps any transport and journals every exchange through it."""

    def __init__(self, inner: ProbeTransport, destination: Union[str, IO],
                 metadata: Optional[Dict] = None):
        self.inner = inner
        if isinstance(destination, str):
            self._fp: IO = open(destination, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = destination
            self._owns_fp = False
        self.exchanges = 0
        self.batches = 0
        self.batched_probes = 0
        self._known_vantages: Dict[str, int] = {}
        self._write({
            "kind": "header",
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_VERSION,
            "inner": inner.capabilities().name,
            "metadata": dict(metadata or {}),
        })

    @property
    def engine(self):
        """The wrapped engine, when the inner transport exposes one."""
        return getattr(self.inner, "engine", None)

    def send(self, probe: Probe) -> Optional[Response]:
        response = self.inner.send(probe)
        self.exchanges += 1
        self._write({
            "kind": "exchange",
            "seq": self.exchanges,
            "probe": probe_to_dict(probe),
            "response": (response_to_dict(response)
                         if response is not None else None),
        })
        return response

    def send_many(self, probes: Sequence[Probe]
                  ) -> List[Optional[Response]]:
        """Journal a batch as its equivalent sequence of exchange records.

        Batches are a pipelining detail, not a wire-format concern: the
        journal stays a flat in-order exchange stream, so a batched run's
        journal replays under a serial collector and vice versa.
        """
        self.batches += 1
        self.batched_probes += len(probes)
        responses = send_batch(self.inner, probes)
        for probe, response in zip(probes, responses):
            self.exchanges += 1
            self._write({
                "kind": "exchange",
                "seq": self.exchanges,
                "probe": probe_to_dict(probe),
                "response": (response_to_dict(response)
                             if response is not None else None),
            })
        return responses

    def capabilities(self) -> TransportCapabilities:
        inner = self.inner.capabilities()
        return TransportCapabilities(
            name=f"recording({inner.name})",
            deterministic=inner.deterministic,
            supports_record_route=inner.supports_record_route,
            live_network=inner.live_network,
        )

    def source_address(self, host_id: str) -> int:
        address = self.inner.source_address(host_id)
        if self._known_vantages.get(host_id) != address:
            self._known_vantages[host_id] = address
            self._write({
                "kind": "vantage",
                "host": host_id,
                "address": format_ip(address),
            })
        return address

    def backend_metrics(self) -> Dict:
        """Journal accounting, folded over the inner backend's."""
        from .base import backend_metrics

        metrics = backend_metrics(self.inner)
        metrics["journal_exchanges_recorded"] = self.exchanges
        metrics["journal_batches_recorded"] = self.batches
        metrics["journal_batched_probes"] = self.batched_probes
        return metrics

    def close(self) -> None:
        self._fp.flush()
        if self._owns_fp:
            self._fp.close()
        self.inner.close()

    def __enter__(self) -> "RecordingTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write(self, payload: Dict) -> None:
        self._fp.write(json.dumps(payload, sort_keys=True))
        self._fp.write("\n")


# -- replay -------------------------------------------------------------------


class ReplayTransport:
    """Re-serves a recorded journal, exchange by exchange, with no network.

    Probes must arrive in the recorded order and match the recorded header
    fields exactly — any divergence raises :class:`ReplayMismatch` (or
    :class:`ReplayExhausted` past the end) rather than inventing an answer.
    """

    def __init__(self, source: Union[str, IO]):
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fp:
                records = _parse_journal(fp)
        else:
            records = _parse_journal(source)
        self.header, self._vantages, self._exchanges = records
        self.cursor = 0
        self.batches = 0

    @property
    def metadata(self) -> Dict:
        return self.header.get("metadata", {})

    @property
    def remaining(self) -> int:
        return len(self._exchanges) - self.cursor

    def send(self, probe: Probe) -> Optional[Response]:
        if self.cursor >= len(self._exchanges):
            raise ReplayExhausted(
                f"journal exhausted after {len(self._exchanges)} exchanges; "
                f"unexpected probe {probe.describe()}")
        expected = self._exchanges[self.cursor]
        sent = probe_to_dict(probe)
        if _match_key(sent) != _match_key(expected["probe"]):
            raise ReplayMismatch(
                f"probe #{self.cursor + 1} diverged from the journal: "
                f"sent {sent!r}, recorded {expected['probe']!r}")
        self.cursor += 1
        payload = expected["response"]
        if payload is None:
            return None
        return response_from_dict(payload, probe)

    def send_many(self, probes: Sequence[Probe]
                  ) -> List[Optional[Response]]:
        """Serve a batch from the flat exchange stream, strictly in order."""
        self.batches += 1
        return [self.send(probe) for probe in probes]

    def capabilities(self) -> TransportCapabilities:
        return TransportCapabilities(
            name="replay",
            deterministic=True,
            supports_record_route=True,
            live_network=False,
            replayed=True,
        )

    def source_address(self, host_id: str) -> int:
        if host_id not in self._vantages:
            raise ValueError(
                f"unknown vantage host {host_id!r} (journal knows "
                f"{sorted(self._vantages) or 'none'})")
        return self._vantages[host_id]

    def backend_metrics(self) -> Dict:
        """Replay cursor accounting (no engine behind this backend)."""
        return {
            "replay_exchanges_served": self.cursor,
            "replay_exchanges_remaining": self.remaining,
            "replay_batches_served": self.batches,
        }

    def close(self) -> None:
        """Journals are fully loaded up front; nothing to release."""

    def assert_drained(self) -> None:
        """Fail when the collection sent fewer probes than were recorded."""
        if self.remaining:
            raise ReplayMismatch(
                f"{self.remaining} recorded exchange(s) were never replayed")


def _parse_journal(fp: IO):
    header: Optional[Dict] = None
    vantages: Dict[str, int] = {}
    exchanges: List[Dict] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"journal line {lineno} is not JSON: {exc}")
        kind = record.get("kind")
        if kind == "header":
            if record.get("format") != JOURNAL_FORMAT:
                raise JournalError(
                    f"not a {JOURNAL_FORMAT} file (line {lineno})")
            if record.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"unsupported journal version {record.get('version')!r}")
            header = record
        elif kind == "vantage":
            vantages[record["host"]] = parse_ip(record["address"])
        elif kind == "exchange":
            exchanges.append(record)
        else:
            raise JournalError(
                f"unknown journal record kind {kind!r} (line {lineno})")
    if header is None:
        raise JournalError("journal has no header line")
    return header, vantages, exchanges
