"""In-memory span tracer that wraps public functions at their import sites.

The tracer patches module attributes from outside the package and restores
them on exit, so the program's own files never change and the untraced run
executes the unpatched code. Spans are kept in memory and saved at the end.
"""

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans (name, start, end, parent, frame id) in memory.

    Times are perf_counter_ns values; parent is the index of the enclosing
    span or -1; frame is whatever the caller set as the current frame id.
    """

    def __init__(self):
        self.names = []      # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.frame = []
        self.notes = {}      # span index -> dict of counts read at the boundary
        self.current_frame = -1
        self._stack = []

    def __len__(self):
        return len(self.names)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.frame.append(self.current_frame)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name, fn, note=None):
        """Return fn wrapped in a span. note(args, result) may return a dict
        of counts to attach to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, sites, notes=None):
        """Patch every module attribute in sites ({module: [attr, ...]}) with
        a span wrapper for the duration of the block, then put the original
        objects back, also when the block raises."""
        notes = notes or {}
        saved = []
        try:
            for mod_name, attrs in sites.items():
                mod = importlib.import_module(mod_name)
                short = mod_name.split(".", 1)[-1]
                for attr in attrs:
                    orig = getattr(mod, attr)
                    name = f"{short}.{attr}"
                    setattr(mod, attr, self.wrap(name, orig, notes.get(name)))
                    saved.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def save(self, path):
        """Write all spans to a compressed .npz file."""
        uniq = sorted(set(self.names))
        code = {n: i for i, n in enumerate(uniq)}
        np.savez_compressed(
            path, names=np.array(uniq),
            name_id=np.array([code[n] for n in self.names], dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            frame=np.array(self.frame, dtype=np.int64))

