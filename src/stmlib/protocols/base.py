"""Shared pieces of the protocol backends.

A backend owns the shared object store and every lock that guards it.
The engine calls, per transaction: on_begin, on_read (which may raise
ProtocolRefused), commit (returning None or an AbortReason, after
cleaning up the transaction's protocol state either way) and on_abort
for voluntary or read-path aborts.

Backends log read and commit events into the engine's recorder from
inside their own critical sections, so that the recorded sequence
numbers reflect the order the effects actually took on each object.
They test only that a recorder is attached; a disabled recorder turns
each record call into an immediate return.
"""

from __future__ import annotations

from ..errors import AbortReason


class ProtocolRefused(Exception):
    """Internal signal: the protocol vetoed a read."""

    def __init__(self, reason: AbortReason):
        self.reason = reason
        super().__init__(reason.value)


class BackendBase:
    #: commits between garbage collection passes; None disables gc
    default_gc_period: int | None = None

    def __init__(self):
        self.engine = None

    def attach(self, engine):
        self.engine = engine

    # subclasses must provide:
    #   on_begin(txn) / on_read(txn, oid) / commit(txn) / on_abort(txn)
    #   seed(oid, value) / read_committed(oid)
    #   object_count() / object_meta(oid) / collect(min_active_ts)

    def on_begin(self, txn):
        pass

    def collect(self, min_active_ts: int) -> int:
        return 0
