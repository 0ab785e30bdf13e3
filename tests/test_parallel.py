"""Tests for the batch measurement executor (dedup, memo, disk, pool)."""

import math
from dataclasses import replace

import pytest

from repro.core import parallel
from repro.core.cache import ResultCache, cache_key
from repro.core.experiment import (
    BandwidthMeasurement,
    ExperimentSettings,
    MeasurementPoint,
)
from repro.core.parallel import MeasurementExecutor
from repro.core.patterns import pattern_by_name
from repro.hmc.packet import RequestType

TINY = ExperimentSettings(warmup_us=5.0, window_us=10.0)


def _points(sizes):
    pattern = pattern_by_name("1 bank", TINY.config)
    return [
        MeasurementPoint.for_pattern(
            pattern,
            request_type=RequestType.READ,
            payload_bytes=size,
            settings=TINY,
        )
        for size in sizes
    ]


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """Point the executor at an empty cache dir with zeroed counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    parallel.reset()
    yield tmp_path / "cache"
    parallel.reset()


def test_batch_dedups_and_preserves_submission_order(fresh_cache):
    results = MeasurementExecutor(jobs=1).measure_points(_points([32, 64, 32, 64, 32]))
    assert parallel.stats().simulations == 2
    assert [m.payload_bytes for m in results] == [32, 64, 32, 64, 32]
    assert repr(results[0]) == repr(results[2]) == repr(results[4])
    assert repr(results[1]) == repr(results[3])


def test_repeat_batches_hit_memo_then_disk(fresh_cache):
    executor = MeasurementExecutor(jobs=1)
    first = executor.measure_points(_points([16, 32]))
    assert parallel.stats().simulations == 2
    executor.measure_points(_points([16, 32]))
    assert parallel.stats().simulations == 2
    assert parallel.stats().memo_hits == 2
    # Fresh process simulation: drop the memo, keep the disk cache.
    parallel.reset()
    second = MeasurementExecutor(jobs=1).measure_points(_points([16, 32]))
    counters = parallel.stats()
    assert counters.simulations == 0
    assert counters.disk_hits == 2
    assert [repr(m) for m in second] == [repr(m) for m in first]


def test_pool_results_identical_to_serial(tmp_path, monkeypatch):
    points = _points([16, 32, 64, 128])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    parallel.reset()
    serial = MeasurementExecutor(jobs=1).measure_points(points)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pool"))
    parallel.reset()
    pooled = MeasurementExecutor(jobs=4).measure_points(points)
    assert parallel.stats().simulations == len(points)
    assert [repr(m) for m in pooled] == [repr(m) for m in serial]
    parallel.reset()


def test_no_cache_executor_never_touches_disk(fresh_cache):
    MeasurementExecutor(jobs=1, use_cache=False).measure_points(_points([32]))
    assert parallel.stats().simulations == 1
    assert ResultCache().stats().entries == 0


def test_configured_context_overrides_and_restores(fresh_cache):
    default = MeasurementExecutor()
    with parallel.configured(jobs=3, use_cache=False):
        inside = MeasurementExecutor()
        assert inside.jobs == 3
        assert inside.use_cache is False
    after = MeasurementExecutor()
    assert after.jobs == default.jobs
    assert after.use_cache == default.use_cache


# ----------------------------------------------------------------------
# the persistent worker pool
# ----------------------------------------------------------------------


@pytest.fixture()
def fresh_pool():
    """Ensure no pool survives from (or leaks into) other tests."""
    parallel.shutdown_pool()
    yield
    parallel.shutdown_pool()


def test_pool_persists_across_batches(fresh_cache, fresh_pool):
    executor = MeasurementExecutor(jobs=2)
    executor.measure_points(_points([16, 32]))
    assert parallel.pool_workers() == 2
    first = parallel.get_pool(2)
    executor.measure_points(_points([64, 128]))
    assert parallel.get_pool(2) is first  # same warm pool, not a new one
    assert parallel.stats().simulations == 4


def test_pool_grows_on_demand_and_never_shrinks(fresh_pool):
    small = parallel.get_pool(1)
    grown = parallel.get_pool(2)
    assert grown is not small
    assert parallel.pool_workers() == 2
    # A narrower request keeps the wider pool.
    assert parallel.get_pool(1) is grown
    assert parallel.pool_workers() == 2


def test_shutdown_pool_is_idempotent(fresh_pool):
    parallel.get_pool(1)
    assert parallel.pool_workers() == 1
    parallel.shutdown_pool()
    assert parallel.pool_workers() == 0
    parallel.shutdown_pool()  # no pool: must be a no-op
    assert parallel.pool_workers() == 0


def test_get_pool_rejects_zero_workers(fresh_pool):
    with pytest.raises(ValueError):
        parallel.get_pool(0)


def test_stats_add_is_thread_safe():
    import threading

    stats = parallel.ExecutorStats()

    def hammer():
        for _ in range(1000):
            stats.add(simulations=1, memo_hits=2, events_simulated=3)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert stats.simulations == 8000
    assert stats.memo_hits == 16000
    assert stats.events_simulated == 24000


def test_reset_zeroes_live_counters_in_place():
    stats = parallel.stats()
    stats.add(simulations=3, disk_hits=1)
    parallel.reset()
    # reset must clear the shared instance, not rebind the module global.
    assert parallel.stats() is stats
    assert stats.simulations == 0
    assert stats.disk_hits == 0


def test_snapshot_is_independent_copy():
    stats = parallel.ExecutorStats()
    stats.add(simulations=1)
    snap = stats.snapshot()
    stats.add(simulations=5)
    assert snap.simulations == 1
    assert stats.simulations == 6


def test_snapshot_labels_pool_width_and_start_method():
    snap = parallel.stats().snapshot()
    assert snap.start_method in ("fork", "forkserver", "spawn")
    assert snap.pool_workers == parallel.pool_workers()


def test_expected_cost_orders_by_duration_ports_and_payload():
    small, large = _points([128, 16])
    assert parallel._expected_cost(large) > parallel._expected_cost(small)
    wide = MeasurementPoint.for_pattern(
        pattern_by_name("1 bank", TINY.config),
        request_type=RequestType.READ,
        payload_bytes=128,
        settings=TINY,
        active_ports=2,
    )
    assert parallel._expected_cost(small) > parallel._expected_cost(wide)


# ----------------------------------------------------------------------
# the configured policy
# ----------------------------------------------------------------------


def test_configure_clamps_jobs_to_at_least_one():
    with parallel.configured(jobs=0):
        assert parallel.get_executor().jobs == 1
    with parallel.configured(jobs=-3):
        assert MeasurementExecutor().jobs == 1
    assert MeasurementExecutor(jobs=0).jobs == 1


def test_configure_none_leaves_each_setting_unchanged():
    with parallel.configured(jobs=5, use_cache=False):
        with parallel.configured(jobs=None, use_cache=None):
            executor = parallel.get_executor()
            assert (executor.jobs, executor.use_cache) == (5, False)
        with parallel.configured(use_cache=True):
            executor = parallel.get_executor()
            assert (executor.jobs, executor.use_cache) == (5, True)


def test_configured_restores_the_policy_when_the_body_raises():
    before = parallel.get_executor()
    fleet = object()
    with pytest.raises(KeyError):
        with parallel.configured(jobs=7, use_cache=False, fleet=fleet):
            raise KeyError("boom")
    after = parallel.get_executor()
    assert (after.jobs, after.use_cache, after.fleet) == (
        before.jobs,
        before.use_cache,
        before.fleet,
    )


def test_get_executor_explicit_arguments_win_over_the_configured_policy():
    with parallel.configured(jobs=6, use_cache=False):
        inherited = parallel.get_executor()
        assert (inherited.jobs, inherited.use_cache) == (6, False)
        explicit = parallel.get_executor(jobs=2, use_cache=True)
        assert (explicit.jobs, explicit.use_cache) == (2, True)


# ----------------------------------------------------------------------
# measure_keyed: one front (memo -> disk -> dedup -> store_many) for
# either miss backend
# ----------------------------------------------------------------------


class _StubFleet:
    """A fleet client stand-in: records each wire batch and answers from
    the local simulation (or raises, when ``error`` is set)."""

    def __init__(self, error=None):
        self.batches = []
        self.error = error

    def measure_many(self, points):
        self.batches.append(list(points))
        if self.error is not None:
            raise self.error
        return [parallel.simulate_point(point)[0] for point in points]


def test_empty_batch_measures_nothing(fresh_cache):
    fleet = _StubFleet()
    assert MeasurementExecutor(jobs=1, fleet=fleet).measure_points([]) == []
    assert MeasurementExecutor(jobs=1).measure_keyed({}) == {}
    assert fleet.batches == []
    assert parallel.stats().snapshot().simulations == 0
    assert not fresh_cache.exists() or not any(fresh_cache.rglob("*.json"))


def test_measure_point_is_a_batch_of_one(fresh_cache):
    (point,) = _points([64])
    single = MeasurementExecutor(jobs=1).measure_point(point)
    parallel.reset()
    (batched,) = MeasurementExecutor(jobs=1, use_cache=False).measure_points([point])
    assert repr(single) == repr(batched)


def test_only_memo_and_disk_misses_reach_the_fleet(fresh_cache):
    memo_point, disk_point, cold_point = _points([16, 32, 64])
    MeasurementExecutor(jobs=1).measure_points([disk_point])
    parallel.reset()  # drop the memo: disk_point now lives on disk only
    MeasurementExecutor(jobs=1, use_cache=False).measure_point(memo_point)
    fleet = _StubFleet()
    keyed = {
        parallel.cache_key(point): point
        for point in (memo_point, disk_point, cold_point)
    }
    resolved = MeasurementExecutor(jobs=1, fleet=fleet).measure_keyed(keyed)
    assert set(resolved) == set(keyed)
    assert fleet.batches == [[cold_point]]
    counters = parallel.stats()
    assert (counters.memo_hits, counters.disk_hits) == (1, 1)
    assert counters.simulations == 1  # memo_point's local run only


def test_fleet_results_return_in_submission_order(fresh_cache):
    points = _points([128, 16, 64, 16, 128])
    fleet = _StubFleet()
    results = MeasurementExecutor(use_cache=False, fleet=fleet).measure_points(points)
    assert [m.payload_bytes for m in results] == [128, 16, 64, 16, 128]
    assert [p.payload_bytes for p in fleet.batches[0]] == [128, 16, 64]


def test_fleet_errors_propagate_and_cache_nothing(fresh_cache):
    (point,) = _points([32])
    failing = _StubFleet(error=ConnectionError("fleet down"))
    with pytest.raises(ConnectionError, match="fleet down"):
        MeasurementExecutor(jobs=1, fleet=failing).measure_point(point)
    assert ResultCache().stats().entries == 0
    # Nothing was memoized either: the next attempt goes back out.
    retry = _StubFleet()
    MeasurementExecutor(jobs=1, fleet=retry).measure_point(point)
    assert retry.batches == [[point]]
    assert ResultCache().stats().entries == 1


def test_a_fleet_executor_never_starts_the_local_pool(fresh_cache, fresh_pool):
    fleet = _StubFleet()
    MeasurementExecutor(jobs=4, fleet=fleet).measure_points(_points([16, 32, 64]))
    assert len(fleet.batches) == 1
    assert parallel.pool_workers() == 0


@pytest.mark.parametrize("backend", ["local", "fleet"])
def test_fresh_results_are_stored_in_one_batched_write(
    fresh_cache, monkeypatch, backend
):
    calls = []
    original = ResultCache.store_many

    def counting_store_many(self, items):
        items = list(items)
        calls.append(len(items))
        return original(self, items)

    monkeypatch.setattr(ResultCache, "store_many", counting_store_many)
    fleet = _StubFleet() if backend == "fleet" else None
    executor = MeasurementExecutor(jobs=1, fleet=fleet)
    executor.measure_points(_points([16, 32, 64, 32]))
    assert calls == [3]
    executor.measure_points(_points([16, 32]))  # all memo hits: no write
    assert calls == [3]
    assert ResultCache().stats().entries == 3


def test_reset_can_keep_the_memo(fresh_cache):
    executor = MeasurementExecutor(jobs=1, use_cache=False)
    executor.measure_points(_points([32]))
    parallel.reset(clear_memo=False)
    executor.measure_points(_points([32]))
    counters = parallel.stats()
    assert (counters.simulations, counters.memo_hits) == (0, 1)


def test_labels_of_one_physical_point_share_one_simulation(fresh_cache, monkeypatch):
    """The label (``pattern_name``) reaches no simulation input: two
    labels cost one simulation, each gets the record a simulation under
    its own label gives, stored under its own key."""
    simulated = []
    original = parallel._simulate

    def counting(point):
        simulated.append(point)
        return original(point)

    monkeypatch.setattr(parallel, "_simulate", counting)
    (point,) = _points([64])
    alias = replace(point, pattern_name="alias")
    executor = MeasurementExecutor(jobs=1)
    first, second = executor.measure_points([point, alias])
    assert len(simulated) == 1
    assert (first.pattern_name, second.pattern_name) == (point.pattern_name, "alias")
    assert repr(second) == repr(parallel.simulate_point(alias)[0])
    # A later batch under a third label is served by the memo.
    third = executor.measure_point(replace(point, pattern_name="third"))
    assert len(simulated) == 1
    assert third.pattern_name == "third"
    counters = parallel.stats()
    assert (counters.simulations, counters.memo_hits) == (1, 2)
    # Each label lives on disk under its own, unchanged key.
    for labeled, measured in ((point, first), (alias, second)):
        assert repr(ResultCache().load(cache_key(labeled))) == repr(measured)
    assert ResultCache().stats().entries == 3


def _stub_measurement(point):
    return BandwidthMeasurement(
        pattern_name=point.pattern_name,
        request_type=point.request_type,
        payload_bytes=point.payload_bytes,
        mode=point.mode,
        active_ports=9,
        bandwidth_gbs=1.0,
        mrps=1.0,
        reads_completed=1,
        writes_completed=0,
        read_latency_avg_ns=1.0,
        read_latency_min_ns=1.0,
        read_latency_max_ns=1.0,
        write_latency_avg_ns=math.nan,
        window_ns=1.0,
    )


def test_paper_campaign_grid_simulates_each_physical_point_once(
    fresh_cache, monkeypatch
):
    """The fig7/8/13/16 ``--fast`` grid names 6 of its 77 points twice
    (``1 vault`` / ``1 vault/random``, ``16 vaults`` / ``16 vaults/random``):
    71 simulations, with every label answered."""
    from repro.cli import FAST_SETTINGS
    from repro.core.campaign import collect_measurement_points

    simulated = []

    def stub(point):
        simulated.append(point)
        return _stub_measurement(point), 0

    monkeypatch.setattr(parallel, "_simulate", stub)
    experiments = ("fig7", "fig8", "fig13", "fig16")
    points = collect_measurement_points(experiments, FAST_SETTINGS)
    assert len({cache_key(point) for point in points}) == 77
    results = MeasurementExecutor(jobs=1, use_cache=False).measure_points(points)
    assert len(simulated) == 71
    assert [m.pattern_name for m in results] == [p.pattern_name for p in points]
