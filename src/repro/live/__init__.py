"""Live failure-detection runtime: real UDP heartbeats over asyncio.

Everything else in this repository evaluates detectors over *recorded*
arrival times (trace replay, the discrete-event simulator).  This package is
the repo's first real-I/O subsystem: the same online detectors
(:mod:`repro.detectors`) monitor heartbeats arriving on an actual socket,
timestamped with the host's monotonic clock.

Modules
-------
- :mod:`repro.live.wire` — versioned struct-packed heartbeat datagram format;
- :mod:`repro.live.arena` — preallocated ``recv_into`` datagram arena for
  zero-copy socket drains;
- :mod:`repro.live.ingest` — columnar batch-ingest engines (numpy
  vectorized, ``array``-module fallback) behind ``ingest_mode="vectorized"``;
- :mod:`repro.live.adaptive` — the per-drain batched-vs-vectorized
  policy behind ``ingest_mode="adaptive"``;
- :mod:`repro.live.heartbeater` — async sender daemon (process p);
- :mod:`repro.live.monitor` — async monitor daemon (process q): per-peer
  detectors, liveness polling, a subscribe-able suspicion/trust event
  stream, and timelines scoreable by :mod:`repro.qos.metrics`;
- :mod:`repro.live.chaos` — deterministic fault injection (loss, delay,
  clock skew, scheduled crash) reusing the :mod:`repro.net` models;
- :mod:`repro.live.service` — the §V-C shared service over live arrivals:
  one heartbeat stream, per-application freshness points;
- :mod:`repro.live.status` — the status endpoint over local TCP (one
  command table per server, one client: :func:`request`/:func:`arequest`)
  plus structured (JSON-lines) logging;
- :mod:`repro.live.shard` — multi-core ingest: ``SO_REUSEPORT`` worker
  processes behind one UDP address, merged into one status document.

See ``docs/live.md`` for the architecture and ``examples/live_quickstart.py``
for a complete loopback run with an injected crash.
"""

from repro.live.adaptive import AdaptiveIngestController
from repro.live.arena import ARENA_SLOT_BYTES, DEFAULT_ARENA_SLOTS, DatagramArena
from repro.live.chaos import ChaosLink, ChaosSpec, PacketFate, PlannedPacket, plan_delivery
from repro.live.heartbeater import Heartbeater
from repro.live.monitor import LiveEvent, LiveMonitor, LiveMonitorServer
from repro.live.service import LiveSharedMonitor
from repro.live.shard import ShardedMonitor, merge_snapshots, reuseport_supported
from repro.live.status import (
    SNAPSHOT_SCHEMA_VERSION,
    StatusServer,
    arequest,
    request,
)
from repro.live.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_DATAGRAM_BYTES,
    VERSION,
    Heartbeat,
    WireError,
    decode_fields,
    decode_fields_from,
)

__all__ = [
    "ARENA_SLOT_BYTES",
    "AdaptiveIngestController",
    "ChaosLink",
    "ChaosSpec",
    "DEFAULT_ARENA_SLOTS",
    "DatagramArena",
    "HEADER_SIZE",
    "Heartbeat",
    "Heartbeater",
    "LiveEvent",
    "LiveMonitor",
    "LiveMonitorServer",
    "LiveSharedMonitor",
    "MAGIC",
    "MAX_DATAGRAM_BYTES",
    "PacketFate",
    "PlannedPacket",
    "SNAPSHOT_SCHEMA_VERSION",
    "ShardedMonitor",
    "StatusServer",
    "VERSION",
    "WireError",
    "arequest",
    "decode_fields",
    "decode_fields_from",
    "merge_snapshots",
    "plan_delivery",
    "request",
    "reuseport_supported",
]
