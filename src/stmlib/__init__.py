"""Software transactional memory with pluggable conflict control.

Three timestamp-based protocols (bto, sgt, mvto) behind one deferred-
write engine, a transactional sorted set built on it, a recorded-
history serializability checker, and a benchmark harness.
"""

from .bench import BenchConfig, BenchReport, emit_report, generate_op, run_benchmark
from .core import CommitResult, Engine, Transaction, TxnStatus
from .errors import (
    AbortReason,
    ConfigInvalid,
    IncompleteHistory,
    NotFound,
    NoVisibleVersion,
    RetryLimitExceeded,
    StmError,
    TransactionAborted,
    TxnNotLive,
    ValueOutOfRange,
    WitnessInvalid,
)
from .oracle import (
    History,
    HistoryRecorder,
    Verdict,
    check_conflict_serializability,
    load_trace,
    replay_check,
    save_trace,
)
from .txnset import TransactionalSet, execute_with_retry, run_op

__version__ = "0.1.0"

__all__ = [
    "AbortReason",
    "BenchConfig",
    "BenchReport",
    "CommitResult",
    "ConfigInvalid",
    "Engine",
    "History",
    "HistoryRecorder",
    "IncompleteHistory",
    "NoVisibleVersion",
    "NotFound",
    "RetryLimitExceeded",
    "StmError",
    "Transaction",
    "TransactionAborted",
    "TransactionalSet",
    "TxnNotLive",
    "TxnStatus",
    "ValueOutOfRange",
    "Verdict",
    "WitnessInvalid",
    "check_conflict_serializability",
    "emit_report",
    "execute_with_retry",
    "generate_op",
    "load_trace",
    "replay_check",
    "run_benchmark",
    "run_op",
    "save_trace",
]
