"""Tests for the sharded measurement fleet.

Ring placement (determinism, distribution, minimal disruption on
rebalance), the persisted fleet state, the router's failover behaviour
under backend death, byte-parity of a 1-backend fleet against a single
daemon, the client's retry and thread safety, and the measurement
executor's fleet miss backend that routes sweeps/campaigns through a
fleet.  Half-dead backends and hostile request lines are in
test_wire_hostile.py.

Everything runs in-process (BackgroundService / BackgroundRouter on
their own event-loop threads, ephemeral ports), mirroring the service
suite: no network setup, unique simulation windows per test so points
are cold in every cache.
"""

import os
import signal
import socket
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core import parallel, schema
from repro.core.cache import cache_key
from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.patterns import pattern_by_name
from repro.core.sweeps import SweepGrid, run_sweep_detailed
from repro.fleet.client import Backoff, FleetClient, FleetUnavailable
from repro.fleet.manager import fleet_down, fleet_up
from repro.fleet.ring import HashRing
from repro.fleet.router import BackgroundRouter, FleetRouter
from repro.fleet.spec import BackendState, FleetSpec, FleetState, FleetStateError
from repro.hmc.packet import RequestType
from repro.service import protocol
from repro.service.server import BackgroundService

DATA = Path(__file__).parent / "data"

#: Exactly the settings/grid the committed golden baselines were made
#: with (see test_devices.py) - reused for the fleet parity gate.
GOLDEN_SETTINGS = ExperimentSettings(warmup_us=2.0, window_us=10.0)
GOLDEN_GRID = SweepGrid(
    patterns=("8 banks", "1 vault"),
    request_types=(RequestType.READ,),
    payload_bytes=(32,),
)

NODES = ["backend-0", "backend-1", "backend-2"]


def _tiny(window_us: float) -> ExperimentSettings:
    """Unique-window settings: cold in every cache, cheap to simulate."""
    return ExperimentSettings(warmup_us=2.0, window_us=window_us)


def _point(settings: ExperimentSettings, payload_bytes: int = 32):
    return MeasurementPoint.for_pattern(
        pattern_by_name("1 bank", settings.config),
        request_type=RequestType.READ,
        payload_bytes=payload_bytes,
        settings=settings,
    )


def _state(backends, router_port=0) -> FleetState:
    """An in-memory FleetState wiring name -> (host, port) maps."""
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
    )


# ------------------------------------------------------------------ ring


def test_ring_placement_is_deterministic_across_instances():
    keys = [f"key-{i}" for i in range(300)]
    first = [HashRing(NODES).node_for(key) for key in keys]
    second = [HashRing(list(reversed(NODES))).node_for(key) for key in keys]
    assert first == second  # insertion order must not matter


def test_committed_cache_keys_route_identically_across_rings():
    # The golden hmc1 cache keys are real routing inputs: two rings
    # built independently must agree on their owners and preferences.
    keys = (DATA / "hmc1_cache_keys.txt").read_text().split()
    ring_a, ring_b = HashRing(NODES), HashRing(NODES)
    for key in keys:
        assert ring_a.node_for(key) == ring_b.node_for(key)
        assert ring_a.preference(key) == ring_b.preference(key)


def test_ring_spreads_keys_across_every_node():
    keys = [f"key-{i}" for i in range(300)]
    shares = HashRing(NODES).shares(keys)
    assert set(shares) == set(NODES)
    assert sum(shares.values()) == len(keys)
    # With 64 virtual nodes each, no backend should own almost
    # everything or almost nothing.
    assert all(20 <= count <= 200 for count in shares.values())


def test_removing_a_node_moves_only_its_keys():
    keys = [f"key-{i}" for i in range(300)]
    ring = HashRing(NODES)
    before = {key: ring.node_for(key) for key in keys}
    ring.remove("backend-1")
    for key in keys:
        after = ring.node_for(key)
        if before[key] == "backend-1":
            assert after != "backend-1"
        else:  # consistent hashing: unaffected keys must not move
            assert after == before[key]
    ring.add("backend-1")
    assert {key: ring.node_for(key) for key in keys} == before


def test_preference_lists_distinct_nodes_starting_with_owner():
    ring = HashRing(NODES)
    for key in ("a", "b", "c", "d"):
        preference = ring.preference(key)
        assert preference[0] == ring.node_for(key)
        assert sorted(preference) == sorted(NODES)


def test_last_ring_node_cannot_be_removed():
    ring = HashRing(["backend-0"])
    with pytest.raises(ValueError):
        ring.remove("backend-0")


# ------------------------------------------------------------ spec/state


def test_fleet_state_round_trips_through_json(tmp_path):
    spec = FleetSpec(backends=2, run_dir=str(tmp_path))
    state = FleetState(
        host="127.0.0.1",
        router_port=8700,
        router_pid=42,
        backends=tuple(
            BackendState(
                name=name,
                host="127.0.0.1",
                port=8700 + i + 1,
                pid=100 + i,
                cache_dir=str(spec.cache_dir(name)),
                log=str(spec.log_path(name)),
            )
            for i, name in enumerate(spec.backend_names())
        ),
        run_dir=str(tmp_path),
        device="hmc2",
    )
    state.save()
    loaded = FleetState.load(tmp_path)
    assert loaded == state
    assert loaded.backend_map() == state.backend_map()
    assert loaded.backend("backend-1").port == 8702


def test_fleet_state_rejects_unknown_version(tmp_path):
    state = _state({"backend-0": ("127.0.0.1", 1)})
    payload = state.to_dict()
    payload["version"] = 99
    with pytest.raises(FleetStateError):
        FleetState.from_dict(payload)


def test_missing_fleet_state_names_the_run_dir(tmp_path):
    with pytest.raises(FleetStateError, match="fleet up"):
        FleetState.load(tmp_path)


def test_spec_requires_at_least_one_backend():
    with pytest.raises(ValueError):
        FleetSpec(backends=0)


def test_fleet_down_stops_orphaned_pool_workers(tmp_path):
    """A SIGKILLed backend's pool workers die with its process group."""
    state = fleet_up(
        FleetSpec(backends=1, run_dir=str(tmp_path), jobs_per_backend=2)
    )
    pgid = state.backends[0].pid
    try:
        os.kill(pgid, signal.SIGKILL)
        try:
            os.waitpid(pgid, 0)
        except ChildProcessError:
            pass
        os.killpg(pgid, 0)  # the orphaned workers outlive their backend
    finally:
        fleet_down(tmp_path, timeout=10.0)
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


def test_in_process_fleet_cycle_reaps_every_child(tmp_path):
    """``fleet_up``/``fleet_down`` leave no Popen handle 'still running'."""
    import gc
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fleet_up(FleetSpec(backends=1, run_dir=str(tmp_path), jobs_per_backend=1))
        fleet_down(tmp_path, timeout=10.0)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_fleet_down_sigkills_a_group_that_ignores_sigterm(tmp_path):
    """A group still alive after the drain timeout is killed and reported."""
    import subprocess
    import sys

    def session(ignore_sigterm):
        code = "import signal, time\n"
        if ignore_sigterm:
            code += "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        code += "print('ready', flush=True)\ntime.sleep(60)\n"
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        assert proc.stdout.readline() == b"ready\n"
        return proc

    stubborn, polite = session(ignore_sigterm=True), session(ignore_sigterm=False)
    try:
        FleetState(
            host="127.0.0.1",
            router_port=1,
            router_pid=stubborn.pid,
            backends=(
                BackendState(
                    name="backend-0",
                    host="127.0.0.1",
                    port=2,
                    pid=polite.pid,
                    cache_dir=str(tmp_path / "cache"),
                    log=str(tmp_path / "backend-0.log"),
                ),
            ),
            run_dir=str(tmp_path),
        ).save(tmp_path)
        report = fleet_down(tmp_path, timeout=0.5)
    finally:
        for proc in (stubborn, polite):
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    assert report["killed"] == ["router"]
    assert report["stopped"] == ["backend-0"]
    assert not (tmp_path / "fleet.json").exists()
    for pgid in (stubborn.pid, polite.pid):
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)


# ------------------------------------------------- 1-backend byte parity


def _raw_roundtrip(port: int, line: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(line)
        with sock.makefile("rb") as reader:
            return reader.readline()


def test_one_backend_fleet_is_byte_identical_to_single_daemon():
    """The parity gate: the router must relay responses verbatim."""
    parallel.reset()
    points = [
        MeasurementPoint.for_pattern(
            pattern_by_name(name, GOLDEN_SETTINGS.config),
            request_type=RequestType.READ,
            payload_bytes=32,
            settings=GOLDEN_SETTINGS,
        )
        for name in GOLDEN_GRID.patterns
    ]
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            for index, point in enumerate(points):
                line = (
                    schema.dumps(protocol.measure_request(point, request_id=index))
                    + "\n"
                ).encode()
                direct = _raw_roundtrip(backend.port, line)
                via_fleet = _raw_roundtrip(router.port, line)
                assert via_fleet == direct


def test_one_backend_fleet_matches_committed_golden_results():
    parallel.reset()
    golden_lines = (DATA / "hmc1_golden_tiny.ndjson").read_text().splitlines()
    points = [
        MeasurementPoint.for_pattern(
            pattern_by_name(name, GOLDEN_SETTINGS.config),
            request_type=RequestType.READ,
            payload_bytes=32,
            settings=GOLDEN_SETTINGS,
        )
        for name in GOLDEN_GRID.patterns
    ]
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            state = _state(backends, router_port=router.port)
            with FleetClient(state=state) as client:
                measurements = client.measure_many(points)
    lines = [
        schema.dumps(schema.result_to_dict(point, measurement))
        for point, measurement in zip(points, measurements)
    ]
    assert lines == golden_lines


# ------------------------------------------------------ router failover


def test_router_fails_over_when_a_backend_dies_under_load():
    settings = _tiny(window_us=11.125)
    points = [_point(settings, size) for size in (16, 32, 48, 64, 80, 96)]
    services = [BackgroundService(jobs=1, use_cache=False) for _ in range(2)]
    try:
        backends = {
            f"backend-{i}": ("127.0.0.1", service.start())
            for i, service in enumerate(services)
        }
        with BackgroundRouter(backends) as router:
            state = _state(backends, router_port=router.port)
            with FleetClient(state=state) as client:
                expected = client.measure_many(points)
                services[0].stop()  # one shard dies mid-fleet
                survivors = client.measure_many(points)
                stats = client.stats()
        assert [m.bandwidth_gbs for m in survivors] == [
            m.bandwidth_gbs for m in expected
        ]
        assert stats["ring"]["nodes"] == ["backend-1"]
        assert stats["ring"]["rebalances"] >= 1
        assert stats["backends"]["backend-0"]["alive"] is False
        assert stats["router"]["errors"] == 0
    finally:
        for service in services:
            try:
                service.stop(timeout=5)
            except RuntimeError:
                pass


def test_router_reports_error_when_every_backend_is_gone():
    settings = _tiny(window_us=11.375)
    service = BackgroundService(jobs=1, use_cache=False)
    backends = {"backend-0": ("127.0.0.1", service.start())}
    service.stop()  # the only backend is already dead
    with BackgroundRouter(backends) as router:
        state = _state(backends, router_port=router.port)
        with FleetClient(state=state, backoff=Backoff(retries=0)) as client:
            # The router answers with a daemon-style error response (it
            # stays up; only the measure fails), which the client
            # surfaces as a ServiceError rather than retrying forever.
            with pytest.raises(protocol.ServiceError, match="no backend available"):
                client.measure(_point(settings))


def test_a_second_router_starts_with_its_own_zero_counts():
    """Per-backend counts belong to one router, not to the process."""
    settings = _tiny(window_us=11.625)
    points = [_point(settings, size) for size in (16, 32, 48, 64)]
    dead = BackgroundService(jobs=1, use_cache=False)
    dead_port = dead.start()
    dead.stop()
    with BackgroundService(jobs=1, use_cache=False) as live:
        backends = {
            "backend-0": ("127.0.0.1", live.port),
            "backend-1": ("127.0.0.1", dead_port),
        }
        with BackgroundRouter(backends) as first:
            state = _state(backends, router_port=first.port)
            with FleetClient(state=state) as client:
                client.measure_many(points)
                served = client.stats()["backends"]
        with BackgroundRouter(backends) as second:
            fresh = second.router.stats()["backends"]
    assert served["backend-0"]["requests"] == len(points)
    assert served["backend-1"]["failovers"] >= 1
    for name in backends:
        assert fresh[name]["requests"] == 0
        assert fresh[name]["failovers"] == 0
        assert fresh[name]["latency"]["count"] == 0


def test_router_series_and_stats_render_the_same_ring_state():
    """Rebalance totals are sums of the per-event counts the series carry."""
    router = FleetRouter(
        {"backend-0": ("127.0.0.1", 1), "backend-1": ("127.0.0.1", 2)}
    )
    router._mark_dead("backend-1")
    router._restore("backend-1")
    router._mark_dead("backend-1")
    series = {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry
        for entry in router.series()
    }
    removed = series[("fleet_ring_rebalances_total", (("event", "removed"),))]
    restored = series[("fleet_ring_rebalances_total", (("event", "restored"),))]
    assert (removed["value"], restored["value"]) == (2, 1)
    assert router.stats()["ring"]["rebalances"] == 3
    assert series[("fleet_backends_alive", ())]["value"] == 1
    assert {name for name, _ in series} == {
        "fleet_requests_total",
        "fleet_failovers_total",
        "fleet_backend_latency_seconds",
        "fleet_ring_rebalances_total",
        "fleet_backends_alive",
    }


def test_background_router_propagates_startup_errors():
    with pytest.raises(ValueError, match="at least one backend"):
        BackgroundRouter({}).start()


# ------------------------------------------------------- fleet client


def test_fleet_client_raises_fleet_unavailable_when_router_is_dead():
    settings = _tiny(window_us=11.75)
    # Reserve a port that is guaranteed closed for the dead router.
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_port = placeholder.getsockname()[1]
    placeholder.close()
    state = _state({"backend-0": ("127.0.0.1", dead_port)}, router_port=dead_port)
    fast = Backoff(retries=1, base=0.01)
    with FleetClient(state=state, backoff=fast) as client:
        with pytest.raises(FleetUnavailable, match="unreachable"):
            client.measure(_point(settings))
    assert client.retries >= 1


def test_fleet_client_serializes_threads_on_the_router_connection(monkeypatch):
    """Two threads sharing one client never overlap on its connection.

    The first call on the connection holds it until a second caller
    enters (or 0.5 s pass), so an unserialized client overlaps
    deterministically.
    """
    import threading

    from repro.fleet import client as client_mod

    guard = threading.Lock()
    second_entered = threading.Event()
    in_flight = []
    peak = []

    class FakeServiceClient:
        def __init__(self, host, port, connect_timeout, read_timeout):
            pass

        def measure_many(self, points):
            with guard:
                in_flight.append(1)
                peak.append(len(in_flight))
                first = len(peak) == 1
                if len(in_flight) > 1:
                    second_entered.set()
            if first:
                second_entered.wait(timeout=0.5)
            with guard:
                in_flight.pop()
            return [("measured", point) for point in points]

        def close(self):
            pass

    monkeypatch.setattr(client_mod, "ServiceClient", FakeServiceClient)
    settings = _tiny(window_us=11.5)
    batches = [
        [_point(settings, size) for size in sizes]
        for sizes in ((16, 32, 48, 64), (80, 96, 112, 128))
    ]
    results = {}
    with FleetClient(state=_state({"backend-0": ("127.0.0.1", 1)})) as client:
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(i, client.measure_many(batches[i]))
            )
            for i in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    for i, batch in enumerate(batches):
        assert results[i] == [("measured", point) for point in batch]
    assert len(peak) == len(batches)
    assert max(peak) == 1


def test_backoff_schedule_is_capped_exponential():
    assert Backoff(retries=4, base=0.1, factor=2.0, max_delay=0.5).delays() == [
        0.1,
        0.2,
        0.4,
        0.5,
    ]
    assert Backoff(retries=0).delays() == []


# ------------------------------------------------- the fleet miss backend


def test_configured_fleet_routes_sweeps_through_the_fleet():
    settings = _tiny(window_us=12.125)
    grid = SweepGrid(
        patterns=("1 bank",),
        request_types=(RequestType.READ,),
        payload_bytes=(32, 64),
    )
    parallel.reset()
    expected = run_sweep_detailed(grid, settings, jobs=1, use_cache=False)
    parallel.reset()
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            state = _state(backends, router_port=router.port)
            with FleetClient(state=state) as client:
                parallel.reset()  # all simulation must happen fleet-side
                with parallel.configured(fleet=client):
                    via_fleet = run_sweep_detailed(
                        grid, settings, jobs=1, use_cache=False
                    )
                backend_simulations = parallel.stats().simulations
    # This process simulated every point exactly once - in the backend
    # daemon's own executor, which never picks up the configured fleet,
    # not in the sweep's (both live in this process here).
    assert backend_simulations == len(expected)
    for (p0, m0), (p1, m1) in zip(expected, via_fleet):
        assert cache_key(p0) == cache_key(p1)
        assert repr(m0) == repr(m1)
    # The policy is restored: executors simulate locally again.
    assert parallel.get_executor().fleet is None


def test_configured_fleet_reaches_only_get_executor():
    fleet = object()
    with parallel.configured(fleet=fleet):
        assert parallel.get_executor().fleet is fleet
        assert parallel.get_executor(jobs=4, use_cache=False).fleet is fleet
        assert parallel.MeasurementExecutor().fleet is None
        with parallel.configured(jobs=2):  # an omitted fleet is kept
            assert parallel.get_executor().fleet is fleet
        with parallel.configured(fleet=None):
            assert parallel.get_executor().fleet is None
        assert parallel.get_executor().fleet is fleet
    assert parallel.get_executor().fleet is None


class _FakeFleetClient:
    """Stands in for FleetClient in the CLI's ``--fleet`` wrapper."""

    opened = []

    def __init__(self, run_dir=None):
        self.run_dir = run_dir
        self.closed = False
        _FakeFleetClient.opened.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True
        return False


def _fleet_args(**flags):
    import argparse

    return argparse.Namespace(**flags)


def test_cli_without_fleet_flag_leaves_the_policy_alone(monkeypatch):
    from repro import cli
    from repro.fleet import client as fleet_client

    _FakeFleetClient.opened = []
    monkeypatch.setattr(fleet_client, "FleetClient", _FakeFleetClient)
    for args in (_fleet_args(), _fleet_args(fleet=False, fleet_dir="x")):
        with cli._maybe_fleet(args):
            assert parallel.get_executor().fleet is None
    assert _FakeFleetClient.opened == []


def test_cli_fleet_flag_configures_then_closes_the_client(monkeypatch, tmp_path):
    from repro import cli
    from repro.fleet import client as fleet_client

    _FakeFleetClient.opened = []
    monkeypatch.setattr(fleet_client, "FleetClient", _FakeFleetClient)
    args = _fleet_args(fleet=True, fleet_dir=str(tmp_path))
    with cli._maybe_fleet(args):
        (client,) = _FakeFleetClient.opened
        assert client.run_dir == str(tmp_path)
        assert parallel.get_executor().fleet is client
        assert parallel.MeasurementExecutor().fleet is None
    assert client.closed
    assert parallel.get_executor().fleet is None


def test_cli_fleet_flag_restores_the_policy_when_the_command_fails(monkeypatch):
    from repro import cli
    from repro.fleet import client as fleet_client

    _FakeFleetClient.opened = []
    monkeypatch.setattr(fleet_client, "FleetClient", _FakeFleetClient)
    with pytest.raises(RuntimeError, match="sweep failed"):
        with cli._maybe_fleet(_fleet_args(fleet=True)):
            raise RuntimeError("sweep failed")
    (client,) = _FakeFleetClient.opened
    assert client.closed
    assert parallel.get_executor().fleet is None


def test_fleet_misses_deduplicate_before_the_wire():
    @dataclass(frozen=True)
    class Tagged:
        """A stand-in result: the executor relabels what a miss returns."""

        pattern_name: str
        key: str

    class CountingClient:
        def __init__(self):
            self.batches = []

        def measure_many(self, points):
            self.batches.append(list(points))
            return [Tagged(p.pattern_name, cache_key(p)) for p in points]

    settings = _tiny(window_us=12.375)
    point = _point(settings)
    client = CountingClient()
    executor = parallel.MeasurementExecutor(use_cache=False, fleet=client)
    results = executor.measure_points([point, point, point])
    assert len(client.batches) == 1
    assert len(client.batches[0]) == 1  # one unique point on the wire
    assert results[0] == results[1] == results[2]


def test_fleet_results_are_cached_locally(tmp_path):
    """Fleet-fetched results land in the local memo and disk cache, so a
    repeat batch - even from a fresh executor - never travels again."""
    from repro.core.cache import ResultCache
    from repro.core.experiment import simulate_point

    class CountingClient:
        def __init__(self):
            self.batches = []

        def measure_many(self, points):
            self.batches.append(list(points))
            return [simulate_point(p)[0] for p in points]

    settings = _tiny(window_us=12.625)
    point = _point(settings)
    cache = ResultCache(root=tmp_path / "fleet-cache")
    client = CountingClient()

    def executor():
        return parallel.MeasurementExecutor(cache=cache, fleet=client)

    parallel.reset()
    first = executor().measure_point(point)
    assert len(client.batches) == 1
    assert cache.load(cache_key(point)) is not None  # one store_many ran
    assert parallel.stats().simulations == 0  # the shards count those

    # Fresh executor, memo dropped: the disk cache answers and the wire
    # stays quiet.
    parallel.reset()
    again = executor().measure_point(point)
    assert len(client.batches) == 1
    assert repr(again) == repr(first)
    assert parallel.stats().disk_hits == 1

    # Memo now primed: a third call is a memo hit, still no round-trip.
    third = executor().measure_point(point)
    assert len(client.batches) == 1
    assert repr(third) == repr(first)
    assert parallel.stats().memo_hits == 1


def test_no_cache_under_fleet_leaves_the_local_cache_empty(
    tmp_path, monkeypatch, capsys
):
    from repro import cli

    monkeypatch.setattr(cli, "FAST_SETTINGS", _tiny(window_us=12.875))
    argv = ["sweep", "--fleet", "--fast", "--json", "--patterns", "1 bank"]
    argv += ["--sizes", "32", "--fleet-dir", str(tmp_path / "fleet")]
    with BackgroundService(jobs=1, use_cache=False) as backend:
        backends = {"backend-0": ("127.0.0.1", backend.port)}
        with BackgroundRouter(backends) as router:
            _state(backends, router_port=router.port).save(tmp_path / "fleet")
            lines = {}
            for label, extra in (("cached", []), ("no-cache", ["--no-cache"])):
                monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / label))
                parallel.reset()
                assert cli.main(argv + extra) == 0
                lines[label] = capsys.readouterr().out
    # The control run persists the fleet's answer locally ...
    assert any(p.is_file() for p in (tmp_path / "cached").rglob("*"))
    # ... and --no-cache must not touch the local disk cache at all.
    no_cache_dir = tmp_path / "no-cache"
    assert not any(p.is_file() for p in no_cache_dir.rglob("*"))
    assert lines["cached"] == lines["no-cache"]
    assert len(lines["cached"].splitlines()) == 1
