"""Consistent-hash ring: deterministic key placement with failover order.

The fleet routes every measure request by its content-addressed cache
key (:func:`repro.core.cache.cache_key`), so placement must be a pure
function of ``(key, ring membership)`` - the same key must land on the
same backend across router restarts and across processes.

Each node is hashed onto the ring at :data:`DEFAULT_REPLICAS` virtual
points (SHA-256 of ``"{node}#{replica}"``), which evens out the
per-node share of the key space; a key belongs to the first virtual
point clockwise from the key's own hash.  Node identifiers are the
*stable backend names* (``backend-0``, ``backend-1``, ...), never
host:port pairs - ephemeral ports must not change placement between
runs.

Removing a node (a dead backend) reassigns only that node's share of
the key space to its ring successors; every other key keeps its
backend and therefore its warm cache shard.  :meth:`HashRing.preference`
returns the full failover order - the owner first, then each distinct
successor - which is what the router and the direct client walk when a
backend dies mid-request.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Tuple

from repro.core.cache import sha256_hex

#: Virtual points per node.  64 keeps the largest/smallest node share
#: within ~2x of each other for small fleets while the ring stays tiny
#: (N * 64 entries) to build and search.
DEFAULT_REPLICAS = 64


def _hash(value: str) -> int:
    """Position of ``value`` on the ring: its SHA-256 as an integer."""
    return int(sha256_hex(value)[:16], 16)


class HashRing:
    """Consistent placement of cache keys onto named backend nodes."""

    def __init__(self, nodes: Iterable[str], replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)
        if not self._nodes:
            raise ValueError("a hash ring needs at least one node")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """Current members in insertion order."""
        return tuple(self._nodes)

    def add(self, node: str) -> None:
        """Insert ``node`` at its virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.append(node)
        for replica in range(self.replicas):
            point = _hash(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Drop ``node``; its key share moves to the ring successors."""
        if node not in self._nodes:
            return
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last ring node")
        self._nodes.remove(node)
        kept = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def node_for(self, key: str) -> str:
        """The owner of ``key``: first virtual point clockwise from it."""
        index = bisect.bisect(self._points, _hash(key)) % len(self._points)
        return self._owners[index]

    def preference(self, key: str) -> List[str]:
        """Failover order for ``key``: owner first, then each distinct
        successor clockwise around the ring.  Contains every node
        exactly once."""
        start = bisect.bisect(self._points, _hash(key))
        order: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) == len(self._nodes):
                    break
        return order

    def shares(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (diagnostics/tests)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
