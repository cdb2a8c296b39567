"""Shared-memory weight shipping: publish trials once, ship offset tables.

The pickled :class:`~repro.execution.process.ProcessPoolBackend` serializes
every trial's full drifted parameter arrays into its task message — for a
PreAct-ResNet that is megabytes per task, and the pickling alone can cost
more than the evaluation.  :class:`SharedMemoryBackend` instead publishes
each chunk's flattened parameter block exactly once via
``multiprocessing.shared_memory`` and ships only ``(segment name,
[(digest, {parameter: (offset, shape)}), ...])`` per task; workers map the
segment, copy their trial's arrays out of it, and evaluate as usual.  The
arrays are bit-identical either way (float64 bytes are copied, never
re-encoded), so the engine's determinism contract holds unchanged.

Segment lifecycle: the main process creates one segment per
``run_trials`` chunk and unlinks it as soon as the chunk's results are in;
workers cache their attachment per segment name (closing the previous one
when a new chunk arrives) and always copy out of the mapping, so no live
array ever aliases an unlinked segment.  The evaluation dataset rides in a
second, *pinned* segment leased from the task pool's runtime by content
digest — its zero-copy worker views outlive every trial chunk, and a BO
run re-leases it across sweeps instead of re-publishing it.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..data.loader import Dataset
from .base import TrialResult, register_backend
from .pool import TaskPool
from .process import (_evaluate_trials, _install_trial_context,
                      ProcessPoolBackend)
from .runtime import attach_segment

__all__ = ["SharedMemoryBackend"]

#: ``{parameter name: (byte offset into the segment, array shape)}``
OffsetTable = dict


# --------------------------------------------------------------------------- #
# Worker-side plumbing.
# --------------------------------------------------------------------------- #
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_PINNED: set[str] = set()


def _attach(segment_name: str, pin: bool = False) -> shared_memory.SharedMemory:
    """Attach to (and cache) one published segment, dropping stale ones.

    Trial segments rotate per chunk, so a new attachment evicts the cached
    previous one.  Pinned segments (the published evaluation dataset, whose
    zero-copy views must stay valid while its context is installed)
    survive the rotation.
    """
    segment = _ATTACHED.get(segment_name)
    if segment is None:
        for stale in [name for name in _ATTACHED if name not in _PINNED]:
            _ATTACHED.pop(stale).close()
        segment = attach_segment(segment_name)
        _ATTACHED[segment_name] = segment
        if pin:
            _PINNED.add(segment_name)
    return segment


def _evaluate_shared_group(state: dict, message: tuple) -> list[TrialResult]:
    segment_name, entries = message
    segment = _attach(segment_name)
    pending = {}
    for digest, table in entries:
        params = {}
        for name, (offset, shape) in table.items():
            view = np.ndarray(shape, dtype=np.float64, buffer=segment.buf,
                              offset=offset)
            # Copy out of the mapping: apply_trial must never install an
            # array aliasing a segment the main process is about to unlink.
            params[name] = np.array(view)
        pending[digest] = params
    return _evaluate_trials(state, pending)


# --------------------------------------------------------------------------- #
# Shared-memory dataset publication.
# --------------------------------------------------------------------------- #
@dataclass
class _DatasetHandle:
    """Worker-context stand-in for a published evaluation dataset."""

    segment: str
    inputs_shape: tuple
    labels_shape: tuple
    labels_dtype: str
    labels_offset: int
    num_classes: int


def _attach_dataset(handle: _DatasetHandle) -> Dataset:
    """Rebuild the evaluation dataset over zero-copy views of its segment.

    The views are read-only in practice (evaluation never writes inputs or
    labels) and stay valid because the segment stays pinned while its
    context is installed; ``Dataset`` keeps float64 arrays as-is, so no
    copy is made.
    """
    segment = _attach(handle.segment, pin=True)
    inputs = np.ndarray(handle.inputs_shape, dtype=np.float64,
                        buffer=segment.buf)
    labels = np.ndarray(handle.labels_shape,
                        dtype=np.dtype(handle.labels_dtype),
                        buffer=segment.buf, offset=handle.labels_offset)
    dataset = Dataset(inputs, labels)
    dataset.num_classes = handle.num_classes
    return dataset


def _release_stale_pins(keep: set) -> None:
    """Close pinned dataset attachments not referenced by the new context.

    A worker outlives many contexts; only the dataset views of the
    *currently installed* context are live, so older pinned segments can
    be detached when a new context arrives — bounding the worker's mapped
    memory by one dataset, not one per context ever seen.
    """
    for name in [name for name in _PINNED if name not in keep]:
        _PINNED.discard(name)
        segment = _ATTACHED.pop(name, None)
        if segment is not None:
            segment.close()


def _install_shared_context(context: tuple) -> dict:
    """Worker state for a context whose dataset may be a published handle."""
    model, data, evaluate_fn, evaluator = context
    if isinstance(data, _DatasetHandle):
        _release_stale_pins(keep={data.segment})
        data = _attach_dataset(data)
    return _install_trial_context((model, data, evaluate_fn, evaluator))


def _dataset_digest(data: Dataset) -> str:
    """Content key for a published dataset: shapes, dtypes and raw bytes."""
    inputs = np.ascontiguousarray(data.inputs, dtype=np.float64)
    labels = np.ascontiguousarray(data.labels)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((inputs.shape, labels.shape, str(labels.dtype),
                   data.num_classes)).encode())
    h.update(inputs.data)
    h.update(labels.data)
    return "dataset:" + h.hexdigest()


@register_backend("shared_memory")
class SharedMemoryBackend(ProcessPoolBackend):
    """Worker-pool execution that ships offset tables instead of weights.

    Inherits the pool lifecycle (lazy engagement, single-task chunks stay
    in-process, failures degrade the sweep to serial) and the
    ``trial_batch`` task grouping from :class:`ProcessPoolBackend` and
    replaces only the payloads: per chunk, all unique trials' arrays are
    packed into one shared-memory segment, and each task carries a pickled
    ``(segment name, [(digest, offset table), ...])`` message of a few
    kilobytes regardless of model depth.  The evaluation dataset itself is
    published the same way, once — workers rebuild it over zero-copy views
    of a pinned segment instead of unpickling a full copy each.
    ``bytes_shipped`` counts the task messages plus the pickled dataset
    handle, which is exactly what the ``BENCH_execution`` benchmark
    compares against the pickled pool.
    """

    name = "shared_memory"
    out_of_process = True

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._segments: list[shared_memory.SharedMemory] = []
        self._data_lease = None

    # ------------------------------------------------------------------ #
    def _worker_context(self, tasks: TaskPool) -> tuple:
        """The dataset leaves the context for its own digest-keyed pinned
        segment, so a BO run whose weights change every trial re-ships
        only the model pickle — the dataset segment is re-leased by
        content.  Non-Dataset evaluation data (e.g. detection sample
        lists) still travels pickled."""
        context = self.context
        data = context.data
        if isinstance(data, Dataset):
            self._data_lease = tasks.runtime.lease_segment(
                _dataset_digest(data), lambda: self._publish_dataset(data))
            data = self._data_lease.handle
            self.metrics.counter("bytes_shipped").add(
                len(pickle.dumps(data)))
        return (context.model, data, context.evaluate_fn, context.evaluator)

    def _publish_dataset(self, data: Dataset
                         ) -> tuple[shared_memory.SharedMemory, _DatasetHandle]:
        """Copy the dataset's arrays into one long-lived pinned segment."""
        inputs = np.ascontiguousarray(data.inputs, dtype=np.float64)
        labels = np.ascontiguousarray(data.labels)
        segment = shared_memory.SharedMemory(
            create=True, size=max(inputs.nbytes + labels.nbytes, 1))
        np.ndarray(inputs.shape, dtype=np.float64,
                   buffer=segment.buf)[...] = inputs
        np.ndarray(labels.shape, dtype=labels.dtype, buffer=segment.buf,
                   offset=inputs.nbytes)[...] = labels
        handle = _DatasetHandle(segment.name, inputs.shape, labels.shape,
                                str(labels.dtype), inputs.nbytes,
                                data.num_classes)
        return segment, handle

    def _publish(self, pending: dict[str, dict]
                 ) -> tuple[shared_memory.SharedMemory, dict[str, OffsetTable]]:
        """Pack every pending trial into one segment; return offset tables."""
        total = sum(int(arrays.nbytes) for params in pending.values()
                    for arrays in params.values())
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        self._segments.append(segment)
        tables: dict[str, OffsetTable] = {}
        offset = 0
        for digest, params in pending.items():
            table: OffsetTable = {}
            for name, arrays in params.items():
                block = np.ascontiguousarray(arrays, dtype=np.float64)
                flat = np.ndarray(block.shape, dtype=np.float64,
                                  buffer=segment.buf, offset=offset)
                flat[...] = block
                table[name] = (offset, block.shape)
                offset += block.nbytes
            tables[digest] = table
        return segment, tables

    def _release(self, segment: shared_memory.SharedMemory) -> None:
        segment.close()
        segment.unlink()
        self._segments.remove(segment)

    def _ship(self, tasks: TaskPool, pending: dict[str, dict],
              groups: list[list]) -> list[list[TrialResult]]:
        """Publish the chunk once; each task carries only offset tables."""
        segment, tables = self._publish(pending)
        try:
            messages = [(segment.name,
                         [(digest, tables[digest]) for digest, _ in group])
                        for group in groups]
            self.metrics.counter("tasks_shipped").add(len(messages))
            self.metrics.counter("bytes_shipped").add(
                sum(len(pickle.dumps(message)) for message in messages))
            return tasks.map_ordered(_evaluate_shared_group,
                                     self._context_payload, messages,
                                     setup=_install_shared_context)
        finally:
            self._release(segment)

    def close(self) -> None:
        # A chunk that died mid-flight can leave its segment behind;
        # closing the backend must never leak shared memory.
        for segment in list(self._segments):
            self._release(segment)
        if self._data_lease is not None:
            # The segment stays published for the next sweep's digest hit
            # (a private runtime unlinks it when the task pool closes).
            self._data_lease.release()
            self._data_lease = None
        super().close()
