"""SLO evaluation and the live ``repro fleet top`` rendering.

Both halves are pure functions over the router's ``stats`` payload, so
they are testable without a fleet: ``repro fleet top`` polls the
router, evaluates its ``--slo-*`` thresholds client-side and renders
the snapshot for a human.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SLOThresholds:
    """Configurable per-backend service-level objectives.

    ``None`` disables an objective.  ``min_requests`` suppresses both
    checks until a backend has seen enough traffic for its percentile
    window / failover ratio to mean anything.
    """

    p95_ms: Optional[float] = None
    failover_rate: Optional[float] = None
    min_requests: int = 8

    @property
    def enabled(self) -> bool:
        """Whether any objective is configured."""
        return self.p95_ms is not None or self.failover_rate is not None


def evaluate_slo(
    stats: Mapping[str, Any], thresholds: SLOThresholds
) -> List[Dict[str, Any]]:
    """Return one breach record per backend objective currently violated.

    Each record is ``{"backend", "slo", "value", "threshold"}`` with
    ``slo`` one of ``p95_latency`` / ``failover_rate``.  Backends are
    visited in sorted order so the output is deterministic.
    """
    breaches: List[Dict[str, Any]] = []
    if not thresholds.enabled:
        return breaches
    backends = stats.get("backends") or {}
    for name in sorted(backends):
        entry = backends[name] or {}
        latency = entry.get("latency") or {}
        requests = int(entry.get("requests") or 0)
        failovers = int(entry.get("failovers") or 0)
        if thresholds.p95_ms is not None:
            p95 = latency.get("p95_ms")
            count = int(latency.get("count") or 0)
            if (
                p95 is not None
                and count >= thresholds.min_requests
                and p95 > thresholds.p95_ms
            ):
                breaches.append(
                    {
                        "backend": name,
                        "slo": "p95_latency",
                        "value": p95,
                        "threshold": thresholds.p95_ms,
                    }
                )
        if thresholds.failover_rate is not None:
            attempts = requests + failovers
            if attempts >= thresholds.min_requests:
                rate = failovers / attempts
                if rate > thresholds.failover_rate:
                    breaches.append(
                        {
                            "backend": name,
                            "slo": "failover_rate",
                            "value": round(rate, 4),
                            "threshold": thresholds.failover_rate,
                        }
                    )
    return breaches


def _cell(value: Any, places: int = 1) -> str:
    """Render one numeric table cell (``-`` for missing)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def served_quantiles(
    entry: Mapping[str, Any],
) -> Tuple[Optional[float], Optional[float]]:
    """A backend's ``(p50_ms, p95_ms)``; ``None`` each until it serves.

    An empty latency window reports 0 ms quantiles on the wire (fleet
    merges rely on that), which must not render as a zero latency.
    """
    latency = entry.get("latency") or {}
    if not int(latency.get("count") or 0):
        return None, None
    return latency.get("p50_ms"), latency.get("p95_ms")


def render_top(
    stats: Mapping[str, Any],
    breaches: Sequence[Mapping[str, Any]] = (),
) -> str:
    """Render the router stats payload as a fleet dashboard.

    One header line summarising the router and ring, then a column-
    aligned table with a row per backend; backends currently breaching
    an SLO are flagged ``!`` and listed below the table.
    """
    router = stats.get("router") or {}
    ring = stats.get("ring") or {}
    backends = stats.get("backends") or {}
    breached = {record["backend"] for record in breaches}

    header = (
        f"fleet: {len(backends)} backend(s), ring {len(ring.get('nodes') or ())}"
        f" node(s) ({int(ring.get('rebalances') or 0)} rebalances) | "
        f"router up {float(router.get('uptime_s') or 0.0):.1f}s, "
        f"{int(router.get('requests') or 0)} requests, "
        f"{int(router.get('failovers') or 0)} failovers, "
        f"{int(router.get('errors') or 0)} errors"
    )

    columns = (
        "backend",
        "alive",
        "inflight",
        "requests",
        "failovers",
        "p50_ms",
        "p95_ms",
    )
    rows = []
    for name in sorted(backends):
        entry = backends[name] or {}
        p50, p95 = served_quantiles(entry)
        flag = "!" if name in breached else ""
        rows.append(
            (
                f"{name}{flag}",
                "yes" if entry.get("alive") else "NO",
                _cell(entry.get("inflight", 0)),
                _cell(entry.get("requests", 0)),
                _cell(entry.get("failovers", 0)),
                _cell(p50, 2),
                _cell(p95, 2),
            )
        )
    widths = [
        max(len(columns[i]), *(len(row[i]) for row in rows))
        if rows
        else len(columns[i])
        for i in range(len(columns))
    ]
    lines = [header, ""]
    lines.append(
        "  ".join(title.ljust(widths[i]) for i, title in enumerate(columns))
    )
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    for record in breaches:
        lines.append(
            f"SLO BREACH [{record['slo']}] {record['backend']}: "
            f"{record['value']} > {record['threshold']}"
        )
    return "\n".join(lines)
