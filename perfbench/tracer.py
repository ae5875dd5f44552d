"""Spans around the public functions of the twinbeam modules.

`Tracer.install` replaces every public function of the traced modules
with a wrapper, both at its module attribute and at every name another
twinbeam module bound to it with `from .x import y`.  Internal calls
such as `gaussian.cp_defect` from `GaussianChannel.__post_init__`
therefore pass through a wrapper too.

Each call records one span: name, start, end, parent span and the
operation id the benchmark set.  Spans stay in memory in flat arrays
and are written out when the process is done with them; `load_spans`
and `layer_totals` turn the files back into call counts and self times.

A process forked from a traced one (a `multiprocessing.Pool` worker)
starts with an empty span buffer and appends its spans to its own file
each time its outermost traced call returns, because pool workers are
terminated without running exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = (
    "gaussian",
    "metrics",
    "lumped",
    "propagation",
    "atomic",
    "traces",
    "configio",
    "cli",
)

SPAN_DTYPE = np.dtype(
    [
        ("name", "i4"),
        ("id", "i8"),
        ("parent", "i8"),
        ("op", "i4"),
        ("start", "f8"),
        ("end", "f8"),
    ]
)


def public_functions():
    """(layer.name, function) for each function in a traced `__all__`."""
    for short in MODULES:
        module = importlib.import_module(f"twinbeam.{short}")
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{short}.{attr}", fn


class Tracer:
    """Span recorder; `enabled` switches recording without unwrapping."""

    def __init__(self, out_dir: Path, clock=perf_counter):
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.names: list[str] = []
        self.enabled = False
        self.op = 0
        # rows parsed by traces.parse_traces, the one count taken from
        # an argument rather than from the call itself
        self.rows = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._reset_buffers()
        self._flush_at_root = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset_buffers(self) -> None:
        self._name = array("i")
        self._id = array("q")
        self._parent = array("q")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")

    def _after_fork(self) -> None:
        self._stack.clear()
        self._reset_buffers()
        self.rows = 0
        self._flush_at_root = True

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        count_rows = name == "traces.parse_traces"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if count_rows and args:
                self.rows += max(0, args[0].count("\n") - 1)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self._name.append(nid)
                self._id.append(sid)
                self._parent.append(parent)
                self._op.append(self.op)
                self._start.append(start)
                self._end.append(end)
                if self._flush_at_root and not stack:
                    self.flush()

        return traced

    def install(self) -> list[str]:
        """Wrap the public functions; returns the traced names."""
        replacements = {id(fn): self.wrap(name, fn) for name, fn in public_functions()}
        for modname, module in list(sys.modules.items()):
            if modname != "twinbeam" and not modname.startswith("twinbeam."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        return list(self.names)

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        if not len(self._id):
            return
        records = np.empty(len(self._id), dtype=SPAN_DTYPE)
        records["name"] = self._name
        records["id"] = self._id
        records["parent"] = self._parent
        records["op"] = self._op
        records["start"] = self._start
        records["end"] = self._end
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.npy"
        fresh = not path.exists()
        with open(path, "ab") as fh:
            if fresh:
                np.save(fh, np.array(self.names))
            np.save(fh, np.array([self.rows], dtype="i8"))
            np.save(fh, records)
        self._reset_buffers()
        self.rows = 0


def load_spans(out_dir: Path) -> list[tuple[list[str], int, np.ndarray]]:
    """Per process: (names, rows parsed, spans) from its span file."""
    found = []
    for path in sorted(Path(out_dir).glob("spans-*.npy")):
        rows = 0
        chunks = []
        with open(path, "rb") as fh:
            names = [str(n) for n in np.load(fh)]
            while fh.peek(1):
                rows += int(np.load(fh)[0])
                chunks.append(np.load(fh))
        spans = np.concatenate(chunks) if chunks else np.empty(0, SPAN_DTYPE)
        found.append((names, rows, spans))
    return found


def self_times(spans: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    duration = spans["end"] - spans["start"]
    order = np.argsort(spans["id"])
    ids = spans["id"][order]
    has_parent = spans["parent"] >= 0
    pos = np.searchsorted(ids, spans["parent"][has_parent])
    pos = np.clip(pos, 0, max(len(ids) - 1, 0))
    known = ids[pos] == spans["parent"][has_parent]
    child_time = np.zeros(len(spans))
    np.add.at(child_time, order[pos[known]], duration[has_parent][known])
    return duration - child_time


def layer_totals(out_dir: Path) -> tuple[dict[str, dict[str, float]], int]:
    """Calls and self seconds per traced name over every span file."""
    totals: dict[str, dict[str, float]] = {}
    rows = 0
    for names, file_rows, spans in load_spans(out_dir):
        rows += file_rows
        own = self_times(spans)
        calls = np.bincount(spans["name"], minlength=len(names))
        seconds = np.bincount(spans["name"], weights=own, minlength=len(names))
        for i, name in enumerate(names):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(seconds[i])
    return totals, rows
