"""The coalescing batch queue behind ``POST /v1/evaluate``.

Evaluate requests arriving within one *batching window* are coalesced
into a **single engine call** (:func:`repro.dse.engine.
evaluate_batch`): the first submission opens a window, every request
landing inside it joins the batch, identical configs (same content-hash
key) collapse to one evaluation, and each waiting client gets its own
copy of the record for its key.  The window closes after ``window_s``
seconds or when ``max_batch`` requests are queued, whichever comes
first; a batch takes at most ``max_batch`` requests, and the rest wait
in the queue for the next one.

Correctness model: the per-point evaluator is a pure function of the
config (certified by lint rule R8) and the engine's cache is
content-hashed, so *when* a request is evaluated — alone, in a batch, or
served from cache — cannot change its bytes.  Batching only changes
latency and work, never results; ``tests/test_serve_differential.py``
and ``tests/test_serve_concurrency.py`` pin both halves of that claim.

The worker thread runs each batch under its own context-local tracer
(:func:`repro.obs.use_tracer`), so engine spans land on the batch, and
every client of the batch gets the same batch summary back without ever
touching another request's tracer.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.concurrency import guarded_by, holds_no_locks
from ..dse.cache import DiskCache
from ..dse.engine import evaluate_batch
from ..obs import Tracer, summarize, use_tracer

#: Default batching window, seconds (25 ms: long enough to coalesce a
#: burst, short enough to stay interactive).
DEFAULT_WINDOW_S = 0.025

#: Default cap on requests per batch.
DEFAULT_MAX_BATCH = 256

#: Default bound on how long one submission waits for its record.  A
#: healthy batch completes in well under a second of queueing plus the
#: engine call; a minute means the worker thread died or wedged, and the
#: handler must return a structured 503 instead of hanging forever.
DEFAULT_SUBMIT_TIMEOUT_S = 60.0


class BatchTimeout(RuntimeError):
    """A submission's completion event never fired within the timeout."""


class _PendingRequest:
    """One waiting client: its keyed config and a completion event."""

    __slots__ = ("key", "config", "event", "record", "served", "batch")

    def __init__(self, key: str, config: Dict[str, object]):
        self.key = key
        self.config = config
        self.event = threading.Event()
        self.record: Optional[Dict[str, object]] = None
        self.served: Optional[str] = None
        self.batch: Optional[Dict[str, object]] = None


@guarded_by("_cond", "_pending", "_closed", "requests", "batches",
            "evaluated", "coalesced")
class BatchingQueue:
    """Coalesce evaluate requests into single cache-through engine calls.

    ``submit`` blocks the calling (request-handler) thread until its
    record is ready; one daemon worker thread drains windows.  All
    counters are cumulative and guarded by the queue lock:

    * ``requests`` — submissions accepted;
    * ``batches`` — engine calls made;
    * ``evaluated`` — distinct keys handed to the engine (after
      within-batch dedup, before the cache);
    * ``coalesced`` — requests that shared an engine call with at least
      one other request for the same key (``requests - sum(unique)``).
    """

    def __init__(self, cache: Optional[DiskCache] = None,
                 window_s: float = DEFAULT_WINDOW_S,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 submit_timeout_s: float = DEFAULT_SUBMIT_TIMEOUT_S):
        self.cache = cache
        self.window_s = max(0.0, window_s)
        self.max_batch = max(1, max_batch)
        self.submit_timeout_s = max(0.001, submit_timeout_s)
        self._cond = threading.Condition()
        self._pending: List[_PendingRequest] = []
        self._closed = False
        self.requests = 0
        self.batches = 0
        self.evaluated = 0
        self.coalesced = 0
        self._thread = threading.Thread(target=self._drain, daemon=True,
                                        name="repro-serve-batcher")
        self._thread.start()

    # ---------------------------------------------------------------- client
    @holds_no_locks(reason="parks the request-handler thread on the "
                           "completion event until the batch lands")
    def submit(self, key: str, config: Dict[str, object]
               ) -> Tuple[Dict[str, object], str, Dict[str, object]]:
        """Block until ``config`` (already normalized, content-keyed) is
        evaluated; returns ``(record, "hit"|"miss", batch_info)``.

        Raises :class:`BatchTimeout` when no record arrives within
        ``submit_timeout_s`` — a dead or wedged worker thread must
        surface as a structured 503, never strand the handler forever.
        """
        request = _PendingRequest(key, config)
        with self._cond:
            if self._closed:
                raise RuntimeError("batching queue is shut down")
            self._pending.append(request)
            self.requests += 1
            self._cond.notify_all()
        if not request.event.wait(timeout=self.submit_timeout_s):
            raise BatchTimeout(
                f"no batch served key {request.key} within "
                f"{self.submit_timeout_s:g}s — the batching worker is "
                "dead or wedged")
        if request.record is None:
            error = dict((request.batch or {}).get("error") or {})
            raise RuntimeError(
                "batch evaluation failed: "
                f"{error.get('type', 'unknown')}: {error.get('message', '')}")
        return request.record, request.served or "miss", request.batch or {}

    def stats(self) -> Dict[str, object]:
        with self._cond:
            return {"requests": self.requests, "batches": self.batches,
                    "evaluated": self.evaluated,
                    "coalesced": self.coalesced,
                    "window_s": self.window_s,
                    "max_batch": self.max_batch,
                    "submit_timeout_s": self.submit_timeout_s}

    # ---------------------------------------------------------------- worker
    def _drain(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            if batch:
                self._run_batch(batch)

    def _collect(self) -> Optional[List[_PendingRequest]]:
        """One window's worth of requests (None = queue shut down)."""
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending and self._closed:
                return None
            deadline = time.monotonic() + self.window_s
            while len(self._pending) < self.max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            # At most max_batch per engine call; the rest stay queued,
            # and a full remainder starts the next batch at once.
            batch = self._pending[:self.max_batch]
            del self._pending[:self.max_batch]
            return batch

    def _run_batch(self, batch: List[_PendingRequest]) -> None:
        # Within-batch dedup by content key, first-arrival order.
        keyed: List[Tuple[str, Dict[str, object]]] = []
        seen: Dict[str, bool] = {}
        for request in batch:
            if request.key not in seen:
                seen[request.key] = True
                keyed.append((request.key, request.config))

        tracer = Tracer(enabled=True)
        try:
            with use_tracer(tracer):
                with tracer.span("serve.batch", requests=len(batch),
                                 unique=len(keyed)):
                    records, served = evaluate_batch(keyed,
                                                     cache=self.cache)
            failure: Optional[Dict[str, object]] = None
        except Exception as exc:  # noqa: BLE001 — waiters must be released
            records, served = {}, {}
            failure = {"type": type(exc).__name__, "message": str(exc)}

        with self._cond:
            self.batches += 1
            self.evaluated += len(keyed)
            self.coalesced += len(batch) - len(keyed)
            index = self.batches
        info = {
            "index": index,
            "requests": len(batch),
            "unique": len(keyed),
            "spans": summarize(tracer)["spans"],
        }
        if failure is not None:
            info = dict(info, error=failure)
        for request in batch:
            request.record = records.get(request.key)
            request.served = served.get(request.key)
            request.batch = info
            request.event.set()

    # ------------------------------------------------------------- lifecycle
    @holds_no_locks(reason="joins the worker thread")
    def shutdown(self) -> None:
        """Stop accepting work; drain what is queued; join the worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=10)
