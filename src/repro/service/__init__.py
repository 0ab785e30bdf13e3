"""The measurement service: a long-running daemon for heavy traffic.

``repro serve`` turns the simulator into a queryable network service:
front-ends submit wire-schema measurement requests over newline-
delimited JSON and the daemon answers from (in order) the in-process
memo, the on-disk result cache, coalescing with an identical in-flight
request, or a fresh simulation batched through the parallel measurement
executor.  The pieces:

* :mod:`repro.service.protocol` - request/response wire format;
* :mod:`repro.service.metrics`  - served/coalesced/latency counters;
* :mod:`repro.service.batcher`  - request coalescing + bounded queue;
* :mod:`repro.service.server`   - the asyncio daemon with graceful drain;
* :mod:`repro.service.client`   - the blocking :class:`ServiceClient`.

This package exports only the client side, so a client never loads
asyncio or ssl.  The daemon classes live in :mod:`repro.service.server`
(also as ``repro.MeasurementService`` and ``repro.BackgroundService``).
"""

from repro.service.client import ServiceClient
from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT, ServiceError

__all__ = [
    "ServiceClient",
    "ServiceError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
]
