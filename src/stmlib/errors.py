"""Exception taxonomy, abort reasons and transaction statuses.

Everything here is shared across the library and imports nothing from
it, so the engine and the protocol backends can both use it.
"""

import enum


class TxnStatus(enum.Enum):
    LIVE = "live"
    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    """Why a transaction failed validation."""

    STALE_READ = "stale_read"
    STALE_WRITE = "stale_write"
    CYCLE_DETECTED = "cycle_detected"
    OBSOLETE_VERSION = "obsolete_version"


class StmError(Exception):
    """Base class for all library errors."""


class TxnNotLive(StmError):
    """An operation was attempted on a committed or aborted transaction."""


class NotFound(StmError):
    """The object id is unknown to the store and the transaction's log."""


class TransactionAborted(StmError):
    """The backend refused an operation and the transaction was aborted.

    Raised from the read path; commit failures are reported through the
    commit result instead.
    """

    def __init__(self, reason: AbortReason):
        super().__init__(f"transaction aborted: {reason.value}")
        self.reason = reason


class NoVisibleVersion(StmError):
    """No committed version precedes the reader's timestamp.

    Defensive: unreachable for workloads whose objects are only
    discovered through committed values, such as the linked-list set.
    """


class ValueOutOfRange(StmError):
    """A set key collides with one of the sentinel bounds."""


class IncompleteHistory(StmError):
    """A history was checked before every transaction terminated."""


class WitnessInvalid(StmError):
    """A replay was asked to use an order that is not a valid witness."""


class ConfigInvalid(StmError):
    """A benchmark configuration failed validation."""
