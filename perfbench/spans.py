"""In-memory span recorder for the benchmark's traced run.

The recorder times calls into the program from outside: :class:`Patches`
swaps a layer's public callables for wrappers made by
:meth:`Recorder.span` or :meth:`Recorder.leaf`, and puts the originals
back on :meth:`Patches.restore`.  Nothing in ``src/`` knows it is traced.

A span is a list ``[sid, parent, tkey, layer, name, start, end, fold,
units]`` (lists are cheap to build on the hot path).  ``tkey`` names the
thread that ran it, unique across threads and forked processes.  Spans
stay in memory until the run ends; :meth:`Recorder.records` returns them
as dicts.

Three situations need care, and each has its mechanism here:

* **Threads.**  Every thread keeps its own stack.  A thread records only
  inside a root span.  :func:`traced_executor` makes a
  ``ThreadPoolExecutor`` whose tasks run as roots linked to the span that
  submitted them.
* **Forked processes.**  A child forked inside a span opens a process
  root linked to that span.  It writes its closed spans to
  ``<spool_dir>/<pid>.jsonl`` each time a top-level span closes, because
  a worker that leaves through ``os._exit`` never runs cleanup code.
* **Per-sample calls.**  A leaf wrapper folds its call count, time and
  units into the enclosing span instead of recording a span of its own.
  Calls made inside a leaf are not timed separately.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

now = time.perf_counter

#: Layer name of the roots: a thread's time outside every layer span.
ROOT_LAYER = "trace"

SID, PARENT, TKEY, LAYER, NAME, START, END, FOLD, UNITS = range(9)


class _ThreadState:
    __slots__ = ("tkey", "stack", "done", "in_leaf", "spool", "flushed")

    def __init__(self, tkey: int):
        self.tkey = tkey
        self.stack: List[list] = []
        self.done: List[list] = []
        self.in_leaf = False
        #: Spool file of a forked child; ``None`` in the parent process.
        self.spool: Optional[str] = None
        self.flushed = 0


def as_record(span: list) -> Dict[str, object]:
    """The JSON-ready dict form of one span list."""
    return {
        "sid": span[SID],
        "parent": span[PARENT],
        "tkey": span[TKEY],
        "layer": span[LAYER],
        "name": span[NAME],
        "start": span[START],
        "end": span[END],
        "fold": {key: list(entry) for key, entry in (span[FOLD] or {}).items()},
        "units": span[UNITS],
    }


class Recorder:
    """Per-thread span stacks, leaf folding and fork spooling."""

    def __init__(self, spool_dir: Optional[str] = None):
        self.spool_dir = spool_dir
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List[list]] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- identity and per-thread state -------------------------------------

    def _next_id(self) -> int:
        return (self._pid << 32) | next(self._ids)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            return self._new_state()

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(self._next_id())
        self._local.state = state
        with self._lock:
            self._buffers.append(state.done)
        return state

    def current_span_id(self) -> Optional[int]:
        stack = self._state().stack
        return stack[-1][SID] if stack else None

    # -- roots -------------------------------------------------------------

    @contextmanager
    def root(self, name: str = "trace.root", parent: Optional[int] = None):
        """Record on this thread for the duration of the block."""
        state = self._state()
        if state.stack:
            raise RuntimeError("a root span cannot open inside another span")
        span = [self._next_id(), parent, state.tkey, ROOT_LAYER, name,
                now(), None, None, 0]
        state.stack.append(span)
        try:
            yield span
        finally:
            span[END] = now()
            state.stack.pop()
            state.done.append(span)

    def run_as_root(self, parent: int, fn: Callable, args, kwargs):
        """Run ``fn`` on this thread as a root linked to ``parent``."""
        with self.root("trace.thread", parent=parent):
            return fn(*args, **kwargs)

    # -- wrappers ----------------------------------------------------------

    def span(self, fn: Callable, layer: str, name: str, units=None) -> Callable:
        """``fn`` recording one span per call."""
        state_of = self._state
        next_id = self._next_id
        flush = self._flush

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if not stack or state.in_leaf:
                return fn(*args, **kwargs)
            span = [next_id(), stack[-1][SID], state.tkey, layer, name,
                    now(), None, None, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    span[UNITS] = units(args, kwargs, result)
                return result
            finally:
                span[END] = now()
                stack.pop()
                state.done.append(span)
                if state.spool is not None and len(stack) == 1:
                    flush(state)

        return traced

    def leaf(self, fn: Callable, layer: str, name: str, units=None) -> Callable:
        """``fn`` folding its count and time into the enclosing span."""
        state_of = self._state
        key = f"{layer}|{name}"

        @functools.wraps(fn)
        def folded(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if not stack or state.in_leaf:
                return fn(*args, **kwargs)
            state.in_leaf = True
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                state.in_leaf = False
                top = stack[-1]
                fold = top[FOLD]
                if fold is None:
                    fold = top[FOLD] = {}
                entry = fold.get(key)
                if entry is None:
                    entry = fold[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
            if units is not None:
                entry[2] += units(args, kwargs, result)
            return result

        return folded

    # -- forked children ---------------------------------------------------

    def after_fork_in_child(self) -> None:
        """Reset for a freshly forked child; open its process root.

        The spans the child inherited belong to the parent, which
        reports them itself.  The child records only when it was forked
        inside a span, and then links its root to that span.
        """
        inherited = self._state().stack
        parent = inherited[-1][SID] if inherited else None
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._buffers = []
        self._local = threading.local()
        if parent is None or self.spool_dir is None:
            return
        state = self._new_state()
        state.spool = os.path.join(self.spool_dir, f"{self._pid}.jsonl")
        state.stack.append([self._next_id(), parent, state.tkey, ROOT_LAYER,
                            "trace.process", now(), None, None, 0])

    def _flush(self, state: _ThreadState) -> None:
        """Append a child's newly closed spans, and its root so far."""
        fresh = state.done[state.flushed:]
        state.flushed = len(state.done)
        root = list(state.stack[0])
        root[END] = now()
        lines = [json.dumps(as_record(span)) for span in fresh]
        lines.append(json.dumps(as_record(root)))
        with open(state.spool, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    # -- results -----------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Every closed span: this process's threads plus the spools.

        A child writes its root once per flush; the latest one wins.
        """
        merged: Dict[int, Dict[str, object]] = {}
        with self._lock:
            buffers = [list(buffer) for buffer in self._buffers]
        for buffer in buffers:
            for span in buffer:
                merged[span[SID]] = as_record(span)
        if self.spool_dir is not None and os.path.isdir(self.spool_dir):
            for name in sorted(os.listdir(self.spool_dir)):
                if not name.endswith(".jsonl"):
                    continue
                path = os.path.join(self.spool_dir, name)
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        record = json.loads(line)
                        seen = merged.get(record["sid"])
                        if seen is None or record["end"] >= seen["end"]:
                            merged[record["sid"]] = record
        return sorted(merged.values(), key=lambda r: (r["start"], r["sid"]))


#: The recorder forked children report to; see :func:`_after_fork`.
_ACTIVE: Optional[Recorder] = None
_FORK_HOOK_REGISTERED = False


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork_in_child()


def activate(recorder: Optional[Recorder]) -> None:
    """Route fork notifications to ``recorder`` (``None`` stops them).

    ``os.register_at_fork`` cannot be undone, so one process-wide hook is
    registered once and forwards to whichever recorder is active.
    """
    global _ACTIVE, _FORK_HOOK_REGISTERED
    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_after_fork)
        _FORK_HOOK_REGISTERED = True
    _ACTIVE = recorder


def traced_executor(recorder: Recorder):
    """A ``ThreadPoolExecutor`` whose tasks run as linked roots."""

    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current_span_id()
            if parent is None:
                return super().submit(fn, *args, **kwargs)
            return super().submit(recorder.run_as_root, parent, fn, args, kwargs)

    return TracedThreadPoolExecutor


class Patches:
    """Replace names where callers look them up, and put them back.

    Methods are replaced on their class, keeping ``staticmethod`` and
    ``classmethod`` descriptors as they are.  Module-level callables are
    replaced in every loaded module under ``package`` that bound the same
    object, because ``from m import f`` copies the binding.
    """

    def __init__(self, package: str = "repro"):
        self.package = package
        self._undo: List[tuple] = []

    def method(self, cls, name: str, wrap: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, raw))

    def binding(self, original, replacement) -> int:
        """Rebind every module global that is ``original``; returns how many."""
        count = 0
        prefix = self.package + "."
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.package or module_name.startswith(prefix)
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._undo.append((module, attr, original))
                    count += 1
        return count

    def function(self, module, name: str, wrap: Callable[[Callable], Callable]) -> int:
        original = getattr(module, name)
        return self.binding(original, wrap(original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
