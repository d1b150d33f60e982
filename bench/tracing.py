"""Spans around the benchmark's calls into the eiscong modules.

A span is (id, op, name, parent, start, end).  Spans are kept in memory and
written out once, when the run ends.  A span's name is "<module>.<call>", so
the module prefix names the layer; names outside the package modules
("op", "probe.*") are the benchmark's own.  Spans come from calls the
benchmark makes, and from public package names it wraps for a traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("arith", "quadfield", "characters", "lseries", "eisenstein",
          "iwasawa", "measures")


class Tracer:
    """Records spans when enabled; otherwise `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "op": self._op, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def op(self, index: int):
        """Root span of one operation; its children share its op id."""
        if not self.enabled:
            yield
            return
        self._op = index
        with self.span("op"):
            yield

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, owner, attr: str, name: str, probe: str | None = None):
        """Trace every call of owner.attr under `name` while the context is open.

        With `probe`, each call is repeated at once under that span name and
        the first call's result is returned.  Disabled, nothing is replaced.
        """
        real = getattr(owner, attr)
        if not self.enabled:
            yield
            return

        def traced(*args, **kwargs):
            res = self.call(name, real, *args, **kwargs)
            if probe:
                self.call(probe, real, *args, **kwargs)
            return res

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, real)

    # -- summaries -----------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer: duration minus the children's spans.

        Calls run one at a time, so children never overlap and their summed
        durations are the part of the parent they cover.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer in out:
                out[layer] += s["end"] - s["start"] - child[s["id"]]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
