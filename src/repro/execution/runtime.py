"""Execution runtime: leased worker pools + digest-keyed segments.

:class:`ExecutionRuntime` owns the expensive execution resources — worker
pools and shared-memory segments — and hands them out as leases.  Every
fan-out in this package reaches them through
:class:`~repro.execution.pool.TaskPool`; nothing else builds a pool.

* **Pools.**  Pools are *bare* ``ProcessPoolExecutor``s (no
  initializer), keyed by ``(workers, multiprocessing start method)``, so
  one pool serves trial backends, search-trial fan-out and cell fan-out
  alike.  ``lease_pool()`` hands out the cached pool (or forks a new one
  on a cold start); releasing a lease leaves the pool running for the
  next sweep.
* **Digest-keyed segments.**  Worker context (model weights, evaluation
  data, evaluate_fn, evaluator) is pickled once, content-hashed,
  published into a ``multiprocessing.shared_memory`` segment and *leased
  by digest*: identical content (the same trained weights and data across
  a σ grid or back-to-back sweeps) is published once and re-leased, and
  only changed payloads are re-shipped.

The process-wide runtime (:func:`get_runtime`) is the *warm* one: its
pools outlive every sweep.  "Cold" execution is not a second code path
but a *private* runtime — any other ``ExecutionRuntime`` — that a
``TaskPool`` builds for itself and shuts down at ``close()``, used when
the process-wide runtime is opted out (``configure_runtime(enabled=False)``,
``python -m repro run --cold-runtime``) and inside worker processes.

Lifecycle rules, all load-bearing:

* **Fork safety.**  A lease never crosses ``fork``: the runtime stamps
  its owning PID and resets itself (dropping — *not* closing — the
  parent's pools and segments) the first time it is touched from a new
  process.  The process-wide runtime only leases in the main process —
  worker processes exit via ``os._exit`` without running ``atexit``
  hooks, so a warm pool created inside a worker would leak its
  grandchildren.  A private runtime may live in a worker because its
  owner shuts it down.
* **Idle TTL.**  Unleased pools and segments older than ``idle_ttl``
  seconds are reaped on the next runtime touch (and idle segments beyond
  ``max_idle_segments`` are evicted oldest-first, bounding ``/dev/shm``
  growth during long BO runs whose weights change every trial).
* **Shutdown.**  ``runtime.shutdown()`` joins every pool and unlinks
  every segment; an ``atexit`` hook (registered when the global runtime
  is first built, PID-guarded) guarantees the same at interpreter exit,
  so no orphan processes or segments survive the owning process.

Counters — ``pool_reuses`` / ``segment_reuses`` / ``cold_starts`` /
``segments_published`` — are kept on the runtime's own
:class:`~repro.telemetry.MetricsRegistry` and mirrored into the ambient
telemetry session, so ``trace summarize`` shows how warm a run actually
ran.  The determinism contract is untouched: the runtime moves *where*
pools and bytes live, never what is evaluated — canonical reports and
golden BO traces are byte-identical warm or cold.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from ..telemetry import MetricsRegistry, current

__all__ = [
    "ExecutionRuntime", "PoolLease", "SegmentLease",
    "get_runtime", "configure_runtime", "shutdown_runtime", "using_runtime",
    "read_payload",
]

#: Idle seconds after which an unleased pool or segment is reaped.
DEFAULT_IDLE_TTL = 300.0

#: Idle (unleased) segments kept beyond the newest N are evicted eagerly,
#: TTL notwithstanding — long BO runs publish a new weight payload per
#: trial and must not grow ``/dev/shm`` without bound.
DEFAULT_MAX_IDLE_SEGMENTS = 8

def _in_main_process() -> bool:
    return multiprocessing.parent_process() is None


def _pool_method() -> str:
    """The start method pools use: ``fork`` wherever the platform has it."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def read_payload(handle: tuple) -> object:
    """Worker-side: unpickle a published ``(digest, name, nbytes)`` payload.

    Attaches, copies the bytes out and detaches immediately — the caller
    keeps the unpickled objects, never a view into the segment, so a
    later reap/unlink in the owning process cannot invalidate anything.

    On CPython < 3.13 spawned processes register mere attachments with
    their own resource tracker and would double-unlink the owner's segment
    at exit, so the attachment is unregistered there.  Forked processes
    share the owner's tracker, where the duplicate registration is a set
    no-op and unregistering would make the owner's own unlink fail.
    """
    digest, name, nbytes = handle
    segment = shared_memory.SharedMemory(name=name)
    if "fork" not in multiprocessing.get_all_start_methods():
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass  # tracking semantics differ across versions; never fatal
    try:
        return pickle.loads(bytes(segment.buf[:nbytes]))
    finally:
        segment.close()


# --------------------------------------------------------------------------- #
# Cache entries and leases.
# --------------------------------------------------------------------------- #
@dataclass
class _PoolEntry:
    pool: ProcessPoolExecutor
    leases: int = 0
    last_used: float = field(default_factory=time.monotonic)


@dataclass
class _SegmentEntry:
    segment: shared_memory.SharedMemory
    handle: tuple
    leases: int = 0
    last_used: float = field(default_factory=time.monotonic)


class _Lease:
    """A borrowed runtime resource; ``release()`` hands it back once."""

    def __init__(self, release, key, entry):
        self._release = release
        self._key = key
        self._entry = entry
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._release(self._key, self._entry)


class PoolLease(_Lease):
    """A borrowed pool.  ``release()`` returns it, still running."""

    @property
    def pool(self) -> ProcessPoolExecutor:
        return self._entry.pool


class SegmentLease(_Lease):
    """A borrowed published payload; ``handle`` is ``(digest, name, nbytes)``."""

    @property
    def handle(self) -> tuple:
        return self._entry.handle


# --------------------------------------------------------------------------- #
# The runtime.
# --------------------------------------------------------------------------- #
class ExecutionRuntime:
    """Process-wide cache of warm worker pools and published segments.

    Single-threaded by design (like every fan-out entry point in this
    codebase): leases are taken and released from the orchestrating
    process's main thread.  All public methods are fork-guarded — the
    first touch from a forked child resets the child's view instead of
    closing resources the parent still owns.
    """

    def __init__(self, enabled: bool = True,
                 idle_ttl: float = DEFAULT_IDLE_TTL,
                 max_idle_segments: int = DEFAULT_MAX_IDLE_SEGMENTS):
        self._enabled = bool(enabled)
        self.idle_ttl = float(idle_ttl)
        self.max_idle_segments = int(max_idle_segments)
        self._pid = os.getpid()
        self._pools: dict[tuple, _PoolEntry] = {}
        self._segments: dict[str, _SegmentEntry] = {}
        self.metrics = MetricsRegistry()

    # -- knobs ---------------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        """Leasing is on, and this process may own this runtime's pools.

        The process-wide runtime leases only in the main process; any
        other runtime is private to the owner that built it (a worker's
        task pool included), which shuts it down.
        """
        return self._enabled and (self is not _GLOBAL or _in_main_process())

    def configure(self, enabled: bool | None = None,
                  idle_ttl: float | None = None,
                  max_idle_segments: int | None = None) -> "ExecutionRuntime":
        if enabled is not None:
            self._enabled = bool(enabled)
            if not self._enabled:
                self.shutdown()
        if idle_ttl is not None:
            self.idle_ttl = float(idle_ttl)
        if max_idle_segments is not None:
            self.max_idle_segments = int(max_idle_segments)
        return self

    # -- fork / bookkeeping --------------------------------------------- #
    def _fork_check(self) -> None:
        if os.getpid() != self._pid:
            # Forked child: the pools and segments belong to the parent.
            # Drop the references without closing anything.
            self._pools = {}
            self._segments = {}
            self._pid = os.getpid()

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.counter(name).add(value)
        current().add(name, value)

    def stats(self) -> dict:
        """Introspection for tests and ``trace summarize`` narratives."""
        self._fork_check()
        return {
            "enabled": self.enabled,
            "pools": len(self._pools),
            "segments": len(self._segments),
            "counters": self.metrics.as_dict(),
        }

    # -- pools ---------------------------------------------------------- #
    def lease_pool(self, workers: int) -> PoolLease | None:
        """Lease a warm bare pool of ``workers`` processes, or ``None``.

        ``None`` means the runtime is opted out (or this is a worker
        process); :class:`~repro.execution.pool.TaskPool` then leases from
        a private runtime instead.
        """
        if workers < 2 or not self.enabled:
            return None
        self._fork_check()
        self._reap_idle()
        key = (int(workers), _pool_method())
        entry = self._pools.get(key)
        if entry is not None and getattr(entry.pool, "_broken", False):
            self._drop_pool(key, entry, wait=False)
            entry = None
        if entry is None:
            pool = ProcessPoolExecutor(
                max_workers=int(workers),
                mp_context=multiprocessing.get_context(_pool_method()))
            entry = _PoolEntry(pool=pool)
            self._pools[key] = entry
            self._count("cold_starts")
        else:
            self._count("pool_reuses")
        entry.leases += 1
        entry.last_used = time.monotonic()
        return PoolLease(self._release_pool, key, entry)

    def _drop_pool(self, key: tuple, entry: _PoolEntry, wait: bool) -> None:
        if self._pools.get(key) is entry:
            del self._pools[key]
        entry.pool.shutdown(wait=wait, cancel_futures=True)

    def _release_pool(self, key: tuple, entry: _PoolEntry) -> None:
        self._fork_check()
        if self._pools.get(key) is not entry:
            return  # reaped, shut down, or a fork artefact — nothing to do
        entry.leases = max(0, entry.leases - 1)
        entry.last_used = time.monotonic()
        if getattr(entry.pool, "_broken", False):
            # A broken pool's workers are already gone; evict so the next
            # lease forks a fresh one instead of failing again.
            self._drop_pool(key, entry, wait=False)
        self._reap_idle()

    # -- segments ------------------------------------------------------- #
    def lease_payload(self, payload: bytes) -> SegmentLease | None:
        """Publish (or re-lease) a pickled payload, keyed by its content.

        The returned lease's ``handle`` is ``(digest, segment name,
        nbytes)`` — exactly what :func:`read_payload` consumes worker-side —
        so identical content is shipped exactly once.
        """
        if not self.enabled:
            return None
        self._fork_check()
        self._reap_idle()
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        entry = self._segments.get(digest)
        if entry is None:
            segment = shared_memory.SharedMemory(
                create=True, size=max(len(payload), 1))
            segment.buf[:len(payload)] = payload
            entry = _SegmentEntry(segment=segment, handle=(
                digest, segment.name, len(payload)))
            self._segments[digest] = entry
            self._count("segments_published")
        else:
            self._count("segment_reuses")
        entry.leases += 1
        entry.last_used = time.monotonic()
        return SegmentLease(self._release_segment, digest, entry)

    def _drop_segment(self, key: str, entry: _SegmentEntry) -> None:
        if self._segments.get(key) is entry:
            del self._segments[key]
        entry.segment.close()
        try:
            entry.segment.unlink()
        except FileNotFoundError:
            pass

    def _release_segment(self, key: str, entry: _SegmentEntry) -> None:
        self._fork_check()
        if self._segments.get(key) is not entry:
            return
        entry.leases = max(0, entry.leases - 1)
        entry.last_used = time.monotonic()
        self._reap_idle()

    # -- reaping / shutdown --------------------------------------------- #
    def _reap_idle(self) -> None:
        now = time.monotonic()
        for key, entry in list(self._pools.items()):
            if entry.leases == 0 and now - entry.last_used > self.idle_ttl:
                self._drop_pool(key, entry, wait=True)
        idle = [(key, entry) for key, entry in self._segments.items()
                if entry.leases == 0]
        for key, entry in idle:
            if now - entry.last_used > self.idle_ttl:
                self._drop_segment(key, entry)
        # Oldest-first eviction beyond the idle-segment cap.
        idle = sorted(((key, entry) for key, entry in self._segments.items()
                       if entry.leases == 0), key=lambda item: item[1].last_used)
        excess = len(idle) - self.max_idle_segments
        for key, entry in idle[:max(0, excess)]:
            self._drop_segment(key, entry)

    def reap(self) -> None:
        """Reap idle pools/segments now (public for tests and long loops)."""
        self._fork_check()
        self._reap_idle()

    def shutdown(self) -> None:
        """Join every pool and unlink every segment.  Idempotent."""
        self._fork_check()
        for key, entry in list(self._pools.items()):
            self._drop_pool(key, entry, wait=True)
        for key, entry in list(self._segments.items()):
            self._drop_segment(key, entry)


# --------------------------------------------------------------------------- #
# The process-wide runtime.
# --------------------------------------------------------------------------- #
_GLOBAL: ExecutionRuntime | None = None


def _atexit_shutdown() -> None:
    runtime = _GLOBAL
    if runtime is not None and os.getpid() == runtime._pid:
        runtime.shutdown()


def get_runtime() -> ExecutionRuntime:
    """The process-wide runtime (built on first use, reaped at exit)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ExecutionRuntime()
        atexit.register(_atexit_shutdown)
    return _GLOBAL


def configure_runtime(enabled: bool | None = None,
                      idle_ttl: float | None = None,
                      max_idle_segments: int | None = None) -> ExecutionRuntime:
    """Tune the process-wide runtime (``enabled=False`` also shuts it down)."""
    return get_runtime().configure(enabled=enabled, idle_ttl=idle_ttl,
                                   max_idle_segments=max_idle_segments)


def shutdown_runtime() -> None:
    """Shut the process-wide runtime down now (it rebuilds on next use)."""
    if _GLOBAL is not None:
        _GLOBAL.shutdown()


@contextmanager
def using_runtime(runtime: ExecutionRuntime):
    """Swap the process-wide runtime for ``runtime`` within a block.

    The test/benchmark isolation primitive: warm-vs-cold comparisons run
    each arm under its own private runtime without touching (or being
    polluted by) the global one.  The temporary runtime is *not* shut
    down on exit — callers own its lifecycle.
    """
    global _GLOBAL
    previous = _GLOBAL
    get_runtime()  # ensure the atexit hook exists before we start swapping
    _GLOBAL = runtime
    try:
        yield runtime
    finally:
        _GLOBAL = previous
