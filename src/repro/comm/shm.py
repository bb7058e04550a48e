"""Zero-copy NumPy payload transport over POSIX shared memory.

The process backend (:mod:`repro.comm.mp`) moves message envelopes over
pickled control channels, but the array payloads themselves — whose
shapes the hot paths know statically (factor scan ``(2M,2M)+(2M,R)``,
ARD replay ``(2M,R)``, SPIKE ``(M,M)``/``(M,R)``; see
docs/PORTING_TO_MPI.md) — travel through
:class:`multiprocessing.shared_memory.SharedMemory` segments:

- :func:`pack` pickles the payload with protocol 5, diverting every
  contiguous ``ndarray`` buffer *out of band* (``buffer_callback``), and
  writes the diverted buffers into one fresh shared-memory segment.
  That single write is the send-side copy — the same copy the thread
  backend's :func:`~repro.comm.fastcopy.fastcopy` performs, so
  ``copy_messages`` value semantics are preserved for free.
- :func:`unpack` attaches the segment and reconstructs the arrays as
  **views into the shared buffer** (NumPy's pickle-5 path rebuilds via
  ``frombuffer``): the receive side copies nothing.
- Ownership travels with the message.  The sender unregisters the
  segment from its ``resource_tracker`` after posting; the receiver
  maps it without ever telling the tracker, and a ``weakref.finalize``
  on the view base unlinks the name and closes the mapping once the
  last deserialized array is garbage collected.  Crashed receivers
  leave segments behind; the pool sweeps its name prefix
  (``/dev/shm/rshm…``) at shutdown.

Payloads whose array bytes fall below ``threshold`` stay in-band
(pickled buffers riding the control channel) — a few hundred bytes of
latency-bound traffic is cheaper than a segment round trip.  Packing
reports which path was taken so :class:`~repro.comm.stats.RankStats`
can prove the hot path stayed zero-copy (``shm_sends`` /
``payload_deepcopies``).
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import pickle
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import _posixshmem
import numpy as np

__all__ = ["ShmPacked", "pack", "unpack", "release_segment",
           "sweep_prefix", "segment_prefix", "register_pool",
           "DEFAULT_SHM_THRESHOLD"]

#: Below this many out-of-band array bytes, payloads stay in-band.
DEFAULT_SHM_THRESHOLD = 512

_seq = itertools.count()


def segment_prefix(pool_id: int) -> str:
    """Segment-name prefix for one pool (short: POSIX names are 31ch)."""
    return f"rshm{pool_id & 0xFFFFFFFF:08x}"


def _untrack(name: str) -> None:
    """Unregister a created segment from this process's resource tracker.

    Ownership of a posted segment transfers to the receiver; without
    this the creator's tracker would warn about — and unlink — segments
    it no longer owns.
    """
    try:
        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _attach(name: str) -> mmap.mmap:
    """Map an existing segment without telling the resource tracker.

    ``SharedMemory(name=...)`` registers every open on CPython ≤ 3.12,
    attach included, and its ``unlink()`` unregisters; the receiver's
    tracker would then report the sender's segment as leaked.  So the
    receive side maps and unlinks segments itself.
    """
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


class ShmPacked:
    """Wire form of one packed payload.

    ``data`` is the protocol-5 pickle stream; the diverted array
    buffers live either in the shared segment ``shm_name`` (at
    ``spans`` offsets) or inline in ``inline`` (small payloads).
    """

    __slots__ = ("data", "spans", "shm_name", "shm_size", "inline")

    def __init__(self, data: bytes, spans: tuple, shm_name: str | None,
                 shm_size: int, inline: tuple | None):
        self.data = data
        self.spans = spans
        self.shm_name = shm_name
        self.shm_size = shm_size
        self.inline = inline

    @property
    def nbytes(self) -> int:
        """Actual transported bytes (pickle stream + array buffers)."""
        return len(self.data) + self.shm_size + sum(
            len(b) for b in self.inline or ())


def pack(obj: Any, *, threshold: int = DEFAULT_SHM_THRESHOLD,
         prefix: str = "rshm0") -> tuple[ShmPacked, bool]:
    """Serialize ``obj``; returns ``(packed, used_shm)``.

    Contiguous array buffers totalling ``>= threshold`` bytes are
    written to a fresh shared-memory segment (zero-copy receive path);
    smaller payloads ride in-band.
    """
    _drain_pending()
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return ShmPacked(data, (), None, 0, None), False
    views = [b.raw() for b in buffers]
    total = sum(v.nbytes for v in views)
    if total < threshold or total == 0:
        # bytearray, not bytes: the receiver's arrays must be writeable,
        # as they are on the shared-memory path and the thread backend.
        inline = tuple(bytearray(v) for v in views)
        return ShmPacked(data, (), None, 0, inline), False
    name = f"{prefix}.{os.getpid() & 0xFFFFFF:x}.{next(_seq):x}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        spans = []
        offset = 0
        dest = np.frombuffer(seg.buf, dtype=np.uint8)
        for v in views:
            n = v.nbytes
            dest[offset:offset + n] = np.frombuffer(v, dtype=np.uint8)
            spans.append((offset, n))
            offset += n
        packed = ShmPacked(data, tuple(spans), seg.name, total, None)
    finally:
        del dest
        seg.close()
        _untrack(seg.name)
    return packed, True


#: Mappings of unlinked segments not yet closeable: the lease finalizer
#: fires while the dying arrays still export pointers into the mapping,
#: so ``close()`` raises BufferError there.  The list drains on
#: subsequent pack/unpack calls and at exit.
_PENDING_CLOSE: list[mmap.mmap] = []


def _drain_pending() -> None:
    for buf in _PENDING_CLOSE[:]:
        try:
            buf.close()
        except BufferError:
            continue
        _PENDING_CLOSE.remove(buf)


def _release_shm(name: str, buf: mmap.mmap) -> None:
    """Unlink a leased segment; the mapping closes once exports die."""
    release_segment(name)
    try:
        buf.close()
    except BufferError:
        _PENDING_CLOSE.append(buf)


def unpack(packed: ShmPacked) -> Any:
    """Reconstruct the payload; array data stays a view into the segment.

    The segment is leased to the deserialized object graph: a finalizer
    on the shared view base unlinks it when the last array dies.
    """
    _drain_pending()
    if packed.shm_name is None:
        return pickle.loads(packed.data, buffers=packed.inline or ())
    buf = _attach(packed.shm_name)
    base = np.frombuffer(buf, dtype=np.uint8)
    views = [base[off:off + n] for off, n in packed.spans]
    obj = pickle.loads(packed.data, buffers=views)
    # The deserialized arrays chain to ``base`` through frombuffer; when
    # the last one is collected, base goes with it and the lease ends.
    weakref.finalize(base, _release_shm, packed.shm_name, buf)
    return obj


def release_segment(name: str) -> None:
    """Unlink a segment by name without deserializing (stray cleanup)."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


def sweep_prefix(pool_id: int) -> int:
    """Unlink every leftover segment of one pool; returns the count.

    Linux keeps POSIX segments under ``/dev/shm``; on platforms without
    it this is a no-op (segments die with the namespace).
    """
    prefix = segment_prefix(pool_id)
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return 0
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover - permissions
        return 0
    for entry in names:
        if entry.startswith(prefix):
            release_segment(entry)
            removed += 1
    return removed


def _sweep_all_pools() -> None:  # pragma: no cover - exit path
    _drain_pending()
    for pool_id in list(_REGISTERED_POOLS):
        sweep_prefix(pool_id)


_REGISTERED_POOLS: set[int] = set()


def register_pool(pool_id: int) -> None:
    """Arrange for ``pool_id``'s leftover segments to be swept at exit."""
    if not _REGISTERED_POOLS:
        atexit.register(_sweep_all_pools)
    _REGISTERED_POOLS.add(pool_id)
