"""In-memory span recorder that wraps the lab's functions from outside.

A span is (name, start, end, parent index, counts). ``wrap`` replaces a
function where a calling module binds it (``dftlab.training.backward``,
``dftlab.evalreport.sample_batch``, ...), so spans sit at the boundary
between two layers without any change to the lab itself. ``restore``
puts every original back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, counts]
        self.active = True
        self._stack: list = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        idx = len(self.spans)
        entry = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self.spans.append(entry)
        self._stack.append(idx)
        try:
            yield entry
        finally:
            self._stack.pop()
            entry[2] = time.perf_counter()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``observe(args, result)`` may return a dict of counts kept on the span.
        """
        original = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return original(*args, **kwargs)
            with rec.span(name) as entry:
                result = original(*args, **kwargs)
                if observe is not None:
                    entry[4] = observe(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- derived views ---

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[0] == name]

    def under(self, idx: int, name: str) -> bool:
        """True when some ancestor of span ``idx`` is called ``name``."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict:
        """name -> (calls, total s, self s); self excludes time in child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - inner))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, f)
