"""Tests for the content-addressed on-disk measurement cache."""

import json
import math

from repro.core import cache as cache_mod
from repro.core.cache import ResultCache, cache_key, default_cache_dir
from repro.core.schema import measurement_from_dict, measurement_to_dict
from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    simulate_point,
)
from repro.core.patterns import pattern_by_name
from repro.hmc.packet import RequestType

TINY = ExperimentSettings(warmup_us=5.0, window_us=10.0)


def _point(**overrides):
    pattern = pattern_by_name("1 bank", TINY.config)
    defaults = dict(request_type=RequestType.READ, payload_bytes=32, settings=TINY)
    defaults.update(overrides)
    return MeasurementPoint.for_pattern(pattern, **defaults)


def test_cache_key_is_stable_and_input_sensitive():
    assert cache_key(_point()) == cache_key(_point())
    baseline = cache_key(_point())
    assert cache_key(_point(payload_bytes=64)) != baseline
    assert cache_key(_point(request_type=RequestType.WRITE)) != baseline
    assert cache_key(_point(active_ports=3)) != baseline
    assert cache_key(_point(settings=ExperimentSettings())) != baseline


def test_model_version_bump_invalidates_keys(monkeypatch):
    before = cache_key(_point())
    monkeypatch.setattr(cache_mod, "MODEL_VERSION", cache_mod.MODEL_VERSION + 1)
    assert cache_key(_point()) != before


def test_vector_kernel_revision_bump_moves_only_vector_keys(monkeypatch):
    from dataclasses import replace

    vector = _point(settings=replace(TINY, kernel="vector"))
    des_before, vector_before = cache_key(_point()), cache_key(vector)
    monkeypatch.setattr(
        cache_mod, "VECTOR_KERNEL_REVISION", cache_mod.VECTOR_KERNEL_REVISION + 1
    )
    assert cache_key(vector) != vector_before
    assert cache_key(_point()) == des_before


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-hmc"


def test_measurement_round_trips_through_json_including_nan():
    measurement, events = simulate_point(_point())
    assert events > 0
    # Read-only runs have no write latency: the NaN must survive JSON.
    assert math.isnan(measurement.write_latency_avg_ns)
    payload = json.loads(json.dumps(measurement_to_dict(measurement)))
    restored = measurement_from_dict(payload)
    assert repr(restored) == repr(measurement)


def test_store_load_and_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    point = _point()
    key = cache_key(point)
    assert cache.load(key) is None
    measurement, _ = simulate_point(point)
    cache.store(key, measurement)
    loaded = cache.load(key)
    assert repr(loaded) == repr(measurement)
    # A truncated/garbage entry must read as a miss, never an error.
    cache._path(key).write_text("{not json")
    assert cache.load(key) is None


def test_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.stats().entries == 0
    measurement, _ = simulate_point(_point())
    for payload in (16, 32):
        cache.store(cache_key(_point(payload_bytes=payload)), measurement)
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.total_bytes > 0
    assert "2 entries" in stats.render()
    assert cache.clear() == 2
    assert cache.stats().entries == 0


def test_kernel_gets_its_own_cache_key():
    from dataclasses import replace

    des_key = cache_key(_point())
    vector_key = cache_key(_point(settings=replace(TINY, kernel="vector")))
    # Extrapolated results must never shadow event-exact ones, and the
    # DES key must match what pre-kernel builds computed.
    assert des_key != vector_key
