"""Statistics, clocks and process helpers shared by every workload.

All timestamps are ``time.monotonic()``: on Linux it reads the system-wide
CLOCK_MONOTONIC, so a stamp taken in the benchmark and one taken in a
child process (the worker, the server) can be subtracted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond the chosen rank, so a tail figure is
    never read off a handful of requests.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_TAIL_SAMPLES}")
    return sorted(samples)[rank - 1]


def highest_percentile(n: int) -> int:
    """The highest whole percentile that :func:`percentile` allows for n
    samples (0 when there are too few for any)."""
    q = 99
    while q > 0 and n - max(1, math.ceil(q / 100.0 * n)) < MIN_TAIL_SAMPLES:
        q -= 1
    return q


def percentile_or_none(samples: Sequence[float], q: float):
    if q <= 0:
        return None
    try:
        return percentile(samples, q)
    except ValueError:
        return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def run_for(seconds: float, one_pass: Callable[[], Dict]) -> List[Dict]:
    """Repeat ``one_pass`` while another pass still fits in ``seconds``.

    At least one pass always runs; a pass longer than the budget runs
    once (the Table 1 workload).
    """
    results: List[Dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(one_pass())
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            return results


#: Iterations of the speed probe, and the probe's nominal time.  A
#: normalised time is what the segment would take on a machine on which
#: the probe takes exactly ``PROBE_NOMINAL_S``.
PROBE_ITERS = 150_000
PROBE_NOMINAL_S = 0.010
#: Seconds between probes inside a long segment; 0 probes only before
#: and after it (the traced run, so that no probe lands inside a span).
probe_interval_s = 0.25


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now.

    The shared host speeds up and slows down by a fifth or more over
    seconds; a probe run next to a timed segment slows with it.
    """
    t0 = time.monotonic()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    return time.monotonic() - t0


def probed(fn: Callable[[], object]):
    """Run ``fn`` with speed probes before, after and every
    :data:`probe_interval_s` during it (a ``SIGALRM`` handler).

    Returns ``(result, seconds, normalised seconds)``.  ``seconds`` leaves
    out the probes run inside; the normalised time divides it by the mean
    probe and multiplies by :data:`PROBE_NOMINAL_S`, so a machine-wide
    slowdown cancels out.
    """
    probes = [speed_probe()]
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: probes.append(speed_probe()))
    if probe_interval_s:
        signal.setitimer(signal.ITIMER_REAL, probe_interval_s,
                         probe_interval_s)
    t0 = time.monotonic()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.monotonic() - t0 - sum(probes[1:])
        signal.signal(signal.SIGALRM, previous)
    probes.append(speed_probe())
    return result, seconds, normalise(seconds, probes)


def normalise(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` on a machine whose probe takes :data:`PROBE_NOMINAL_S`,
    given probes taken next to the segment."""
    return seconds * PROBE_NOMINAL_S / statistics.fmean(probes)


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()


def program_env(root: str) -> Dict[str, str]:
    """Environment for a program process: the checkout's sources, defaults.

    ``REPRO_TRACE`` and ``REPRO_KERNEL`` are dropped so every workload runs
    the program's default tracing and kernel choice.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TRACE", "REPRO_KERNEL")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
