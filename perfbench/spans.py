"""Span recording for the traced benchmark run.

The untraced run uses `NullRecorder`, whose spans cost one no-op
context manager per stage. The traced run uses `Tracer`: it wraps the
asrlab functions and methods that callers look up (module attributes
imported by name, and class attributes), records one span per call with
its parent, keeps every span in memory and restores the originals when
the run ends.
"""

from __future__ import annotations

import functools
import time
import warnings
from contextlib import contextmanager

_MARK = "__perfbench_span__"


class NullRecorder:
    """Spans that record nothing: the untraced run."""

    traced = False

    @contextmanager
    def span(self, name: str):
        yield {}


class Tracer:
    """In-memory span tree plus the wrappers that feed it."""

    traced = True

    def __init__(self):
        self.spans: list[dict] = []  # {id, name, parent, start, end, attrs}
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec["attrs"]
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, note=None, count_warnings: bool = False) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        note(attrs, args, kwargs, result) adds counts to the span.
        count_warnings records how many warnings the call raised (for
        callers that silence them) and re-emits them unchanged.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                    attrs["warnings"] = len(caught)
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                else:
                    result = original(*args, **kwargs)
                if note is not None:
                    note(attrs, args, kwargs, result)
                return result

        setattr(wrapper, _MARK, name)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def is_wrapped(fn) -> bool:
    return hasattr(fn, _MARK)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def stage_of(spans: list[dict]) -> dict[int, str | None]:
    """Per span id: the name of the nearest enclosing "stage.*" span."""
    out: dict[int, str | None] = {}
    for s in spans:  # parents are recorded before their children
        if s["name"].startswith("stage."):
            out[s["id"]] = s["name"]
        else:
            out[s["id"]] = out[s["parent"]] if s["parent"] is not None else None
    return out
