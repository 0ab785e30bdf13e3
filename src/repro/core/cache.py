"""Persistent, content-addressed cache of bandwidth measurements.

Every :class:`~repro.core.experiment.MeasurementPoint` hashes to a
stable key derived from *all* simulation inputs: the structural
:class:`HMCConfig` (including link geometry), the full
:class:`Calibration`, the address mask, request type, payload size,
addressing mode, port count, simulation windows, the RNG seed, the
pattern label, the cube-network topology (when one is configured), the
simulation kernel (when not the default DES), the device backend (when
not the default ``hmc1``), and :data:`MODEL_VERSION`.  Equal key implies equal
:class:`BandwidthMeasurement`, so results can be reused across
processes and across campaign runs without ever re-simulating a point.

Writes are concurrency-safe for many writers (the parallel executor's
worker pool, several campaigns at once): each entry is written to a
temporary file in the cache directory and published with an atomic
:func:`os.replace`.  Readers therefore only ever observe complete
entries.

Entries are encoded with the versioned wire schema
(:mod:`repro.core.schema`) - the same serializer the measurement daemon
and the CLI's ``--json`` output use - so a cache entry is a valid wire
payload and vice versa.  Entries of an older schema fail to decode and
read as misses.

The cache lives under ``$REPRO_CACHE_DIR`` when set, otherwise
``~/.cache/repro-hmc`` (respecting ``$XDG_CACHE_HOME``).  Bump
:data:`MODEL_VERSION` whenever a simulator or model change alters
measurement results - old entries then simply stop matching.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from repro.core import schema
from repro.core.experiment import BandwidthMeasurement, MeasurementPoint

# CPython's built-in SHA-256 first: hashlib maps OpenSSL's libcrypto
# into the process, several MB that a cache key does not need.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

#: Version of the simulation model the cached results were produced by.
#: Any change to the simulator, device model, or measurement protocol
#: that can alter a BandwidthMeasurement must bump this value; doing so
#: invalidates every existing cache entry at the key level.
MODEL_VERSION = 1

#: Revision of the vector kernel's results, keyed only into non-DES
#: points so DES keys never move.  Revision 2: every window calibrates
#: from its own warm-up, so entries keyed before it (some shaped by a
#: sweep neighbour's warm start) stop matching.
VECTOR_KERNEL_REVISION = 2


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment.

    Order: ``$REPRO_CACHE_DIR``, then ``$XDG_CACHE_HOME/repro-hmc``,
    then ``~/.cache/repro-hmc``.  Re-read on every call so tests (and
    shells) can retarget the cache without re-importing.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-hmc"


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of ``text`` encoded as UTF-8."""
    return _sha256(text.encode()).hexdigest()


def cache_key(point: MeasurementPoint) -> str:
    """Stable content hash of one measurement point's full input set.

    Built from the ``repr`` of the frozen configuration dataclasses -
    deterministic across processes and interpreter runs (no dict/set
    ordering, no pointer identity) - and hashed with SHA-256.
    """
    settings = point.settings
    inputs = [
        MODEL_VERSION,
        settings.config,
        settings.calibration,
        settings.warmup_us,
        settings.window_us,
        settings.max_block_bytes,
        point.mask.clear,
        point.mask.set,
        point.request_type.value,
        point.payload_bytes,
        point.mode.value,
        point.active_ports,
        point.pattern_name,
        point.seed,
    ]
    # Appended only when configured so every single-cube key is exactly
    # what pre-topology builds computed for the same point.
    if settings.topology is not None:
        inputs.append(settings.topology)
    # Same convention for the simulation kernel: vector results are
    # extrapolated, so they live under their own keys and can never
    # shadow (or be shadowed by) an event-exact DES result.
    if settings.kernel != "des":
        inputs.append(("kernel", settings.kernel, VECTOR_KERNEL_REVISION))
    # And for the device backend: non-hmc1 devices change the simulated
    # machine, so their results live under their own keys, while hmc1
    # keys stay exactly what pre-device-zoo builds computed.
    if settings.device != "hmc1":
        inputs.append(("device", settings.device))
    canonical = repr(tuple(inputs))
    return sha256_hex(canonical)


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the on-disk cache contents."""

    root: str
    entries: int
    total_bytes: int

    def render(self) -> str:
        """One-line human summary for the ``repro cache stats`` CLI."""
        kib = self.total_bytes / 1024.0
        return f"{self.entries} entries, {kib:.1f} KiB in {self.root}"


class ResultCache:
    """One directory of content-addressed measurement results.

    Entries are sharded into 256 two-hex-digit subdirectories so even
    very large caches keep directory listings fast.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # Shard directories already ensured by this instance; saves one
        # mkdir round-trip per store when batches land in few shards.
        self._made_dirs: set = set()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _ensure_dir(self, parent: Path) -> None:
        if parent in self._made_dirs:
            return
        parent.mkdir(parents=True, exist_ok=True)
        self._made_dirs.add(parent)

    def load(self, key: str) -> Optional[BandwidthMeasurement]:
        """Return the cached measurement for ``key``, or ``None``.

        Unreadable or truncated entries (e.g. from an interrupted manual
        copy) are treated as misses, never as errors.
        """
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
            return schema.measurement_from_dict(payload)
        except (OSError, ValueError, KeyError):
            return None

    def store(self, key: str, measurement: BandwidthMeasurement) -> None:
        """Persist one measurement atomically (write-temp + rename).

        Safe under concurrent writers: the worst case is two workers
        computing the same point and the last rename winning - both
        wrote identical content.
        """
        path = self._path(key)
        self._ensure_dir(path.parent)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(schema.dumps(schema.measurement_to_dict(measurement)))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def store_many(
        self, entries: Iterable[Tuple[str, BandwidthMeasurement]]
    ) -> None:
        """Persist a batch of measurements, one atomic publish each.

        Amortizes the per-entry directory bookkeeping across a batch -
        the parallel executor calls this once per miss batch instead of
        :meth:`store` once per point.  Each entry is still written
        temp-then-rename, so readers never observe partial entries even
        mid-batch.
        """
        for key, measurement in entries:
            self.store(key, measurement)

    def _entries(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith("."):
                    yield entry

    def stats(self) -> CacheStats:
        """Count entries and bytes currently on disk."""
        entries = 0
        total = 0
        for path in self._entries():
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return CacheStats(root=str(self.root), entries=entries, total_bytes=total)

    def clear(self) -> int:
        """Remove every cache entry; returns how many were deleted."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
