"""Fleet observability end to end: traced requests, fleet metrics, SLOs.

In-process BackgroundService + BackgroundRouter (as in test_fleet.py)
with wire tracing switched on: one traced measure must leave a parented
client -> router -> backend span tree in the shared sink directory,
the router's ``metrics`` verb must answer the merged per-backend view,
and ``fleet top``'s client-side SLO rules must flag breaching backends.
"""

from __future__ import annotations

import pytest

from repro.core import parallel
from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.patterns import pattern_by_name
from repro.fleet.client import FleetClient
from repro.fleet.router import BackgroundRouter
from repro.fleet.spec import BackendState, FleetSpec, FleetState
from repro.fleet.watch import SLOThresholds, evaluate_slo, render_top
from repro.hmc.packet import RequestType
from repro.obs import export as obs_export
from repro.obs import wiretrace
from repro.service.client import ServiceClient
from repro.service.server import BackgroundService


@pytest.fixture(autouse=True)
def _clean_tracing(monkeypatch):
    monkeypatch.delenv(wiretrace.TRACE_DIR_ENV, raising=False)
    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    wiretrace.reset()
    yield
    wiretrace.reset()


def _point(window_us: float):
    settings = ExperimentSettings(warmup_us=2.0, window_us=window_us)
    return MeasurementPoint.for_pattern(
        pattern_by_name("1 bank", settings.config),
        request_type=RequestType.READ,
        payload_bytes=32,
        settings=settings,
    )


def _state(backends, router_port=0, obs=None) -> FleetState:
    return FleetState(
        host="127.0.0.1",
        router_port=router_port,
        router_pid=0,
        backends=tuple(
            BackendState(
                name=name, host=host, port=port, pid=0, cache_dir="", log=""
            )
            for name, (host, port) in backends.items()
        ),
        obs=obs,
    )


def test_traced_measure_leaves_parented_three_service_tree(tmp_path):
    parallel.reset()
    wiretrace.configure(trace_dir=str(tmp_path), sample=1)
    point = _point(window_us=13.625)
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            with ServiceClient(host="127.0.0.1", port=router.port) as client:
                client.measure(point)
    spans = obs_export.load_wire_spans(str(tmp_path))
    by_service = {}
    for span in spans:
        by_service.setdefault(span.service, []).append(span)
    assert {"client", "router", "backend"} <= set(by_service)

    (client_span,) = by_service["client"]
    (serve,) = by_service["backend"]
    routes = [s for s in by_service["router"] if s.name == "route"]
    relays = [s for s in by_service["router"] if s.name == "relay"]
    queue_waits = [s for s in by_service["router"] if s.name == "queue_wait"]
    assert len(routes) == 1 and len(relays) == 1 and len(queue_waits) == 1

    # One trace, correctly parented at every hop.
    assert {s.trace_id for s in spans if s.trace_id} == {client_span.trace_id}
    assert routes[0].parent_id == client_span.span_id
    assert relays[0].parent_id == routes[0].span_id
    assert serve.parent_id == relays[0].span_id
    assert queue_waits[0].parent_id == relays[0].span_id
    assert routes[0].attrs["backend"] == "backend-0"
    assert serve.attrs["ok"] is True
    assert "cache_key" in serve.attrs

    # And the whole thing assembles into one Perfetto document.
    document = obs_export.assemble_trace(spans)
    names = {e["name"] for e in document["traceEvents"] if e.get("ph") == "X"}
    assert {"measure", "route", "relay", "serve", "queue_wait"} <= names


def test_untraced_fleet_roundtrip_writes_no_spans(tmp_path):
    parallel.reset()
    wiretrace.configure(trace_dir=str(tmp_path))  # dir set, sampling off
    point = _point(window_us=13.875)
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            with ServiceClient(host="127.0.0.1", port=router.port) as client:
                client.measure(point)
    assert list(tmp_path.glob("spans-*.ndjson")) == []


def test_router_metrics_verb_merges_backends_with_labels():
    parallel.reset()
    points = [_point(window_us=w) for w in (14.125, 14.375)]
    services = [BackgroundService(jobs=1, use_cache=False) for _ in range(2)]
    try:
        backends = {
            f"backend-{i}": ("127.0.0.1", service.start())
            for i, service in enumerate(services)
        }
        with BackgroundRouter(backends) as router:
            state = _state(backends, router_port=router.port)
            with FleetClient(state=state) as client:
                client.measure_many(points)
                merged = client.metrics()
                routed = client.stats()["backends"]
    finally:
        for service in services:
            service.stop()
    series = merged["series"]
    measure_counters = [
        entry
        for entry in series
        if entry["name"] == "service_measure_requests_total"
        and "backend" in entry["labels"]
    ]
    # One labelled series per backend, each counting only the requests
    # the router sent that backend - the shares are disjoint.
    counts = {entry["labels"]["backend"]: entry["value"] for entry in measure_counters}
    assert counts == {name: routed[name]["requests"] for name in backends}
    assert sum(counts.values()) == len(points)
    # No daemon series joins unlabelled: each backend reports only its own.
    assert not any(
        entry["name"].startswith("service_") and "backend" not in entry["labels"]
        for entry in series
    )
    # The router's own pre-labelled families join the merged view.
    assert any(entry["name"] == "fleet_requests_total" for entry in series)
    # And the whole snapshot renders as valid exposition text.
    text = obs_export.prometheus_text(merged)
    assert "# TYPE service_measure_requests_total counter" in text


def test_fleet_client_adopts_persisted_obs_config(tmp_path):
    state = _state(
        {"backend-0": ("127.0.0.1", 1)},
        obs={"trace_sample": 4, "trace_dir": str(tmp_path), "log_level": "info"},
    )
    FleetClient(state=state).close()
    assert wiretrace.active_dir() == str(tmp_path)
    assert wiretrace.active_sample() == 4


def test_fleet_client_obs_adoption_never_overrides_explicit_config(tmp_path):
    wiretrace.configure(trace_dir=str(tmp_path / "mine"), sample=2)
    state = _state(
        {"backend-0": ("127.0.0.1", 1)},
        obs={
            "trace_sample": 64,
            "trace_dir": str(tmp_path / "fleet"),
            "log_level": "info",
        },
    )
    FleetClient(state=state).close()
    assert wiretrace.active_dir() == str(tmp_path / "mine")
    assert wiretrace.active_sample() == 2


def test_fleet_spec_obs_config_round_trips_through_state():
    spec = FleetSpec(backends=2, trace_sample=8, log_level="debug")
    obs = spec.obs_config()
    assert obs["trace_sample"] == 8
    assert obs["trace_dir"].endswith("trace")
    assert set(obs["event_logs"]) == {"backend-0", "backend-1", "router"}
    state = _state({"backend-0": ("127.0.0.1", 1)}, obs=obs)
    restored = FleetState.from_dict(state.to_dict())
    assert restored.obs == obs


def test_untraced_spec_obs_config_has_no_trace_dir():
    assert FleetSpec().obs_config()["trace_dir"] is None


# ------------------------------------------------------ SLO rules


def _stats(p95_ms, count=20, requests=20, failovers=0):
    return {
        "router": {
            "uptime_s": 1.0,
            "requests": requests,
            "failovers": failovers,
            "errors": 0,
        },
        "ring": {"nodes": ["backend-0"], "replicas": 64, "rebalances": 0},
        "backends": {
            "backend-0": {
                "alive": True,
                "inflight": 0,
                "requests": requests,
                "failovers": failovers,
                "latency": {"count": count, "p50_ms": 1.0, "p95_ms": p95_ms},
            }
        },
    }


def test_evaluate_slo_flags_p95_and_failover_rate():
    thresholds = SLOThresholds(p95_ms=10.0, failover_rate=0.25)
    breaches = evaluate_slo(
        _stats(p95_ms=50.0, requests=10, failovers=10), thresholds
    )
    assert [b["slo"] for b in breaches] == ["p95_latency", "failover_rate"]
    assert breaches[0]["value"] == 50.0
    assert breaches[1]["value"] == 0.5


def test_evaluate_slo_respects_min_requests_warmup():
    thresholds = SLOThresholds(p95_ms=10.0, failover_rate=0.25)
    quiet = _stats(p95_ms=50.0, count=2, requests=2, failovers=2)
    assert evaluate_slo(quiet, thresholds) == []


def test_evaluate_slo_disabled_thresholds_never_breach():
    assert not SLOThresholds().enabled
    assert evaluate_slo(_stats(p95_ms=9999.0), SLOThresholds()) == []


def test_render_top_table_flags_breaching_backends():
    stats = _stats(p95_ms=42.0)
    breaches = evaluate_slo(stats, SLOThresholds(p95_ms=10.0))
    text = render_top(stats, breaches)
    assert "backend-0!" in text
    assert "SLO BREACH [p95_latency] backend-0: 42.0 > 10.0" in text
    assert "1 backend(s)" in text
    clean = render_top(_stats(p95_ms=1.0))
    assert "!" not in clean


def test_idle_backend_renders_no_latency(monkeypatch, capsys):
    # An idle backend's empty window is 0 ms on the wire; both renderers
    # print "-" for it instead of a zero latency.
    idle = _stats(p95_ms=0.0, count=0, requests=0)
    idle["backends"]["backend-0"]["latency"]["p50_ms"] = 0.0
    row = render_top(idle).splitlines()[-1].split()
    assert row[-2:] == ["-", "-"]

    from repro import cli
    from repro.fleet import manager

    status = {
        "run_dir": ".repro-fleet",
        "healthy": True,
        "router": {
            "host": "127.0.0.1",
            "port": 1,
            "pid": 1,
            "alive": True,
            "stats": idle,
        },
        "backends": {
            "backend-0": {"host": "127.0.0.1", "port": 2, "pid": 2, "alive": True}
        },
    }
    monkeypatch.setattr(manager, "fleet_status", lambda run_dir: status)
    assert cli.main(["fleet", "status"]) == 0
    assert "requests=0 p50=- p95=-" in capsys.readouterr().out
