"""Transactional memory engine with pluggable conflict control.

The engine hands out timestamped transactions and buffers their writes
privately; nothing reaches shared state before commit.  Which reads
are admitted and which commits survive is decided by the protocol
backend (bto, sgt or mvto), each of which also owns the locking that
makes publication atomic.

Timestamps double as transaction ids.  The allocator starts at 1 so
that stamp 0 is free to mark pre-seeded initial values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import AbortReason, NotFound, TxnNotLive, TxnStatus
from .protocols import make_backend


class Transaction:
    """Per-thread handle; never shared between threads."""

    __slots__ = ("ts", "status", "read_set", "write_set")

    def __init__(self, ts: int):
        self.ts = ts
        self.status = TxnStatus.LIVE
        self.read_set: dict[int, object] = {}
        self.write_set: dict[int, object] = {}

    def __repr__(self):
        return f"<Transaction ts={self.ts} {self.status.value}>"


@dataclass(frozen=True)
class CommitResult:
    committed: bool
    ts: int
    reason: AbortReason | None = None


class _BackendRead:
    """`engine.read` resolves to `engine.backend.on_read`.

    A non-data descriptor (no `__set__`): an instance attribute named
    `read`, such as a tracing wrapper, shadows it, and deleting that
    attribute brings the lookup back here.  Bind `read = engine.read`
    once before a loop of reads to skip this frame on each of them.
    """

    def __get__(self, engine, owner=None):
        if engine is None:
            return self
        return engine.backend.on_read


class Engine:
    def __init__(self, protocol: str = "bto", recorder=None):
        self.protocol = protocol
        self.backend = make_backend(protocol)
        self.recorder = recorder
        if recorder is not None:
            recorder.protocol = protocol
        self._meta_lock = threading.Lock()  # guards stamps, live set, oid counter
        self._next_ts = 1
        self._next_oid = 1
        self._live: set[int] = set()
        self._commits_since_gc = 0
        self.backend.attach(self)

    # -- lifecycle ----------------------------------------------------

    def begin(self) -> Transaction:
        with self._meta_lock:
            ts = self._next_ts
            self._next_ts += 1
            self._live.add(ts)
        txn = Transaction(ts)
        self.backend.on_begin(txn)
        return txn

    # read(txn, oid) is the backend's on_read, the whole transactional
    # read in one Python frame: it serves the transaction's own logs,
    # admits and logs a first read, and retires the transaction on any
    # exit but TxnNotLive (contract in protocols/base.py).
    read = _BackendRead()

    def write(self, txn: Transaction, oid: int, value):
        self._require_live(txn)
        # only ids new_object_id handed out: a commit would create any
        # other id, which a later new_object_id would hand out again
        if type(oid) is not int or not 0 < oid < self._next_oid:
            self._retire(txn, TxnStatus.ABORTED)
            raise NotFound(f"object {oid!r}")
        txn.write_set[oid] = value

    def commit(self, txn: Transaction) -> CommitResult:
        self._require_live(txn)
        try:
            reason = self.backend.commit(txn)
        except BaseException:
            # the backend publishes nothing before it records the commit,
            # so a raise (say, from the recorder) leaves no write behind
            self._retire(txn, TxnStatus.ABORTED)
            raise
        if reason is not None:
            self._retire(txn, TxnStatus.ABORTED, backend_done=True)
            return CommitResult(False, txn.ts, reason)
        self._retire(txn, TxnStatus.COMMITTED, backend_done=True)
        self._count_commit()
        return CommitResult(True, txn.ts)

    def abort(self, txn: Transaction):
        self._require_live(txn)
        self._retire(txn, TxnStatus.ABORTED)

    def _require_live(self, txn: Transaction):
        if txn.status is not TxnStatus.LIVE:
            raise TxnNotLive(f"transaction {txn.ts} is {txn.status.value}")

    def _retire(self, txn: Transaction, status: TxnStatus, backend_done: bool = False):
        # On a commit-path exit the backend already cleaned up its own
        # state (and logged the commit inside its critical section).
        if not backend_done:
            self.backend.on_abort(txn)
        txn.status = status
        with self._meta_lock:
            self._live.discard(txn.ts)
        if status is TxnStatus.ABORTED and self.recorder is not None:
            self.recorder.record_abort(txn.ts)

    # -- objects ------------------------------------------------------

    def new_object_id(self) -> int:
        with self._meta_lock:
            oid = self._next_oid
            self._next_oid += 1
        return oid

    def seed_object(self, value) -> int:
        """Install an initial value with stamp 0, outside any transaction.

        Only valid before concurrent transactions start.
        """
        oid = self.new_object_id()
        self.backend.seed(oid, value)
        return oid

    def read_committed(self, oid: int):
        """Latest committed value, for non-transactional inspection."""
        return self.backend.read_committed(oid)

    def object_count(self) -> int:
        return self.backend.object_count()

    def object_meta(self, oid: int) -> dict:
        return self.backend.object_meta(oid)

    # -- gc -----------------------------------------------------------

    def min_active_ts(self) -> int:
        with self._meta_lock:
            return min(self._live, default=self._next_ts)

    def collect(self) -> int:
        return self.backend.collect(self.min_active_ts())

    def _count_commit(self):
        # The pass goes through the instance attribute, so a wrapper or a
        # stand-in set on the engine sees every automatic pass.
        period = self.backend.gc_period
        if period is None:
            return
        run = False
        with self._meta_lock:
            self._commits_since_gc += 1
            if self._commits_since_gc >= period:
                self._commits_since_gc = 0
                run = True
        if run:
            self.collect()
