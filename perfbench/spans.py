"""Outside-in tracing: spans around calls into the program's public functions.

Wrappers are installed from the benchmark's own files, so the program is
traced without a single edit.  A span records its name, start, end, the
span that caused it (the enclosing wrapped call on the same thread), the
thread, and a per-request id.  Spans stay in memory until the benchmark
writes them out.

Self time: each instant of the traced window is given to the innermost
span open on each thread at that instant.  When several threads have a
span open, the instant is split evenly between them, except that spans
marked ``wait`` (a thread parked until another thread's work finishes)
get an instant only when no other span is open.  On one thread this is
exactly "duration minus the time covered by child spans", and in every
case the self times plus the unattributed time add up to the window.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "rid", "wait",
                 "failed", "attrs", "depth")

    def __init__(self, name: str, parent: Optional["Span"], wait: bool):
        self.name = name
        self.parent = parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.thread = threading.get_ident()
        self.wait = wait
        self.rid: Optional[str] = None
        self.failed = False
        self.attrs: Optional[Dict[str, object]] = None
        self.start = self.end = 0.0


class Recorder:
    """Collects spans from every wrapped call in this process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, wait: bool = False, on_return=None):
        """``fn`` timed as span ``name``.

        ``on_return(span, args, kwargs, result)`` may annotate the span
        after the call (request ids, batch numbers).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, stack[-1] if stack else None, wait)
            stack.append(span)
            span.start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.monotonic()
                stack.pop()
                recorder.spans.append(span)     # list.append is atomic
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return traced


def _patch_function(module_name: str, attr: str, wrapper_for) -> None:
    """Replace a module-level function everywhere the program bound it.

    ``from x import f`` copies the reference, so every loaded ``repro``
    module holding the same object is patched, not only the defining one.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _patch_method(cls, attr: str, wrapper_for) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrapper_for(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_for(raw))


def install(recorder: Recorder,
            table: Iterable[Tuple[str, str, str, Dict[str, object]]]) -> None:
    """Install wrappers from ``(span, module, qualname, options)`` rows.

    ``qualname`` is ``func`` or ``Class.method``; ``options`` are passed
    to :meth:`Recorder.wrap`.  Modules must already be imported.
    """
    for span_name, module_name, qualname, options in table:
        def wrapper_for(fn, _name=span_name, _opts=options):
            return recorder.wrap(fn, _name, **_opts)
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            _patch_method(getattr(module, cls_name), attr, wrapper_for)
        else:
            _patch_function(module_name, qualname, wrapper_for)


def self_times(spans: Sequence[Span], t0: float, t1: float
               ) -> Tuple[Dict[str, float], float]:
    """``({span name: self seconds}, covered seconds)`` within ``[t0, t1]``."""
    events = []
    for span in spans:
        start, end = max(span.start, t0), min(span.end, t1)
        if end > start:
            # At equal times: ends before starts; outer starts first,
            # inner ends first, so per-thread stacks stay nested.
            events.append((start, 1, span.depth, span))
            events.append((end, 0, -span.depth, span))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    stacks: Dict[int, List[Span]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    covered = 0.0
    last = None
    for when, is_start, _, span in events:
        if last is not None and when > last:
            tops = [stack[-1] for stack in stacks.values() if stack]
            if tops:
                busy = [s for s in tops if not s.wait] or tops
                share = (when - last) / len(busy)
                for s in busy:
                    totals[s.name] += share
                covered += when - last
        last = when
        stack = stacks[span.thread]
        if is_start:
            stack.append(span)
        else:
            stack.remove(span)
    return dict(totals), covered


def layer_table(spans: Sequence[Span], names: Iterable[str], t0: float,
                t1: float) -> Dict[str, float]:
    """Per-layer ``<name>.calls`` / ``<name>.self_s`` plus unattributed time.

    Every name in ``names`` is reported; a layer the workload never
    reached reads 0 calls, which is how a bypass shows.
    """
    selfs, covered = self_times(spans, t0, t1)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        if t0 <= span.start <= t1:
            calls[span.name] += 1
    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    out["unattributed_s"] = (t1 - t0) - covered
    return out


def chrome_events(spans: Sequence[Span], pid: int,
                  origin: float) -> List[Dict[str, object]]:
    """Chrome ``trace_events`` complete events (microseconds)."""
    ids = {id(span): i for i, span in enumerate(spans)}
    events = []
    for i, span in enumerate(spans):
        args: Dict[str, object] = {"id": i}
        if span.parent is not None and id(span.parent) in ids:
            args["parent"] = ids[id(span.parent)]
        if span.rid is not None:
            args["rid"] = span.rid
        if span.failed:
            args["failed"] = True
        if span.attrs:
            args.update(span.attrs)
        events.append({"name": span.name, "ph": "X", "pid": pid,
                       "tid": span.thread,
                       "ts": (span.start - origin) * 1e6,
                       "dur": (span.end - span.start) * 1e6, "args": args})
    return events


def span_records(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Plain-data spans (parents as list indices), for crossing processes."""
    ids = {id(span): i for i, span in enumerate(spans)}
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": ids.get(id(s.parent)), "thread": s.thread,
             "rid": s.rid, "wait": s.wait, "failed": s.failed,
             "attrs": s.attrs} for s in spans]


def from_records(records: Sequence[Dict[str, object]]) -> List[Span]:
    spans: List[Span] = []
    for rec in records:
        span = Span(rec["name"], None, bool(rec["wait"]))
        span.thread = rec["thread"]
        span.start, span.end = rec["start"], rec["end"]
        span.rid, span.failed, span.attrs = (rec["rid"], rec["failed"],
                                             rec["attrs"])
        spans.append(span)
    # Spans finish child-first, so a parent usually comes later in the
    # list: link parents only once every span exists.
    for span, rec in zip(spans, records):
        if rec["parent"] is not None:
            span.parent = spans[rec["parent"]]
    for span in spans:
        depth, parent = 0, span.parent
        while parent is not None:
            depth, parent = depth + 1, parent.parent
        span.depth = depth
    return spans
