"""Spans around the calls into each stmlib layer, installed from outside.

The traced run replaces public entry points on one lane's instances (the
engine, its backend and its recorder) with timing wrappers, and patches a
kernel function into a protocol module only while that module still
imports it.  Each wrapper records calls, total time and self time (total
minus the time of the spans it encloses) per thread; nothing is shared
between threads until the run merges the tallies.  Uninstalling deletes
the instance attributes and restores the module functions, so untraced
slices run the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

from stmlib import TransactionAborted

ENGINE_SPANS = ("begin", "read", "write", "commit", "collect")
BACKEND_SPANS = ("on_begin", "on_read", "commit")
RECORDER_SPANS = ("record_read", "record_write_intent", "record_commit", "record_abort")
KERNELS = {  # protocol -> (module, function) pairs wrapped when present
    "sgt": (("stmlib.protocols.sgt", "node_on_cycle"),),
    "mvto": (("stmlib.protocols.mvto", "version_index"),),
}


class _ThreadTally:
    def __init__(self):
        self.stack: list[float] = []  # time covered by child spans, per open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # key -> calls, total, self
        self.counts = defaultdict(int)


class Tracer:
    """Per-thread span and count tallies for one lane."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[_ThreadTally] = []

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _ThreadTally()
            with self._lock:
                self._tallies.append(tally)
        return tally

    def wrap(self, key: str, fn, count_aborts: bool = False):
        clock = time.perf_counter

        def span(*args, **kwargs):
            tally = self._tally()
            stack = tally.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except TransactionAborted as exc:
                if count_aborts:
                    tally.counts[f"aborts.{exc.reason.value}"] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                row = tally.spans[key]
                row[0] += 1
                row[1] += dt
                row[2] += dt - child
                if stack:
                    stack[-1] += dt
            if count_aborts and getattr(result, "reason", None) is not None:
                tally.counts[f"aborts.{result.reason.value}"] += 1
            return result

        return span

    def spans(self) -> dict[str, tuple[int, float, float]]:
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        for tally in self._tallies:
            for key, row in tally.spans.items():
                for i in range(3):
                    merged[key][i] += row[i]
        return {k: tuple(v) for k, v in merged.items()}

    def counts(self) -> dict[str, int]:
        merged = defaultdict(int)
        for tally in self._tallies:
            for key, n in tally.counts.items():
                merged[key] += n
        return dict(merged)


def install(tracer: Tracer, protocol: str, engine, recorder):
    """Wrap one lane's entry points; returns the undo function."""
    wrapped = []  # (instance, attribute)
    patched = []  # (module, attribute, original)
    for name in ENGINE_SPANS:
        setattr(engine, name, tracer.wrap(f"engine.{name}", getattr(engine, name),
                                          count_aborts=name in ("read", "commit")))
        wrapped.append((engine, name))
    for name in BACKEND_SPANS:
        setattr(engine.backend, name, tracer.wrap(f"backend.{name}", getattr(engine.backend, name)))
        wrapped.append((engine.backend, name))
    if recorder is not None:
        for name in RECORDER_SPANS:
            setattr(recorder, name, tracer.wrap("recorder.record", getattr(recorder, name)))
            wrapped.append((recorder, name))
    for module_name, name in KERNELS.get(protocol, ()):
        module = importlib.import_module(module_name)
        original = getattr(module, name, None)
        if original is not None:
            setattr(module, name, tracer.wrap(f"kernel.{name}", original))
            patched.append((module, name, original))

    def undo():
        for obj, name in wrapped:
            delattr(obj, name)
        for module, name, original in patched:
            setattr(module, name, original)

    return undo
