"""``serve-evaluate``: ``POST /v1/evaluate`` against a live server.

``python -m repro serve --port 0`` runs as its own process with a fresh
``--cache-dir`` and its default batching window and workers.  This
process drives it in a closed loop, because design scripts wait for each
reply, from at most two threads with one keep-alive connection each:

* phase 1, one client: lone-request latency;
* phase 2, two clients: coalescing and contention.

Configs come from ``FULL_SPEC`` in a seeded stream in which about half
the requests repeat an earlier config, so both the hit path (read) and
the miss path (evaluate plus write) run.  Every 200 record must equal,
byte for byte in canonical JSON, the library ``evaluate_config`` record.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from measure import (canonical, highest_percentile, median, normalise,
                     peak_rss_mb, percentile_or_none, program_env, speed_probe)

HERE = os.path.dirname(os.path.abspath(__file__))
STREAM_LEN = 6000
REPEAT_SHARE = 0.5
LONE_SHARE = 0.5            # of --seconds; the rest is the two-client phase
TRACE_COUNTS = (100, 300)   # fixed request counts for the traced comparison
START_TIMEOUT_S = 60.0
SETUP_SAMPLES = 3           # server starts per run; the median is reported


def config_stream(seed: int, full_configs: List[Dict]) -> List[Dict]:
    """Seeded request stream; about half repeat an earlier config."""
    rng = random.Random(seed)
    fresh = list(full_configs)
    rng.shuffle(fresh)
    stream: List[Dict] = []
    for _ in range(STREAM_LEN):
        if stream and (rng.random() < REPEAT_SHARE or not fresh):
            stream.append(stream[rng.randrange(len(stream))])
        else:
            stream.append(fresh.pop())
    return stream


class Server:
    """One server process with a fresh cache directory."""

    def __init__(self, root: str, tmp_parent: str,
                 spans_out: Optional[str] = None):
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-",
                                          dir=tmp_parent)
        serve_args = ["--port", "0", "--cache-dir", self.cache_dir]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_boot.py"),
                   spans_out] + serve_args
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=program_env(root),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = self._read_port()
        self.ready = self._wait_healthy()

    def _read_port(self) -> int:
        deadline = self.launched + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not report its port")

    def _wait_healthy(self) -> float:
        deadline = self.launched + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = get(self.port, "/v1/health")
                if status == 200:
                    return time.monotonic()
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never answered /v1/health")

    @property
    def setup_s(self) -> float:
        return self.ready - self.launched

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background
            # inherits an ignored SIGINT.
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def get(port: int, path: str) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class Load:
    """Closed-loop clients consuming the shared request stream in order."""

    def __init__(self, port: int, stream: List[Dict]):
        self.port = port
        self.stream = stream
        self.next = 0
        self.lock = threading.Lock()
        # (stream index, latency s, status, body bytes)
        self.samples: List[Tuple[int, float, int, bytes]] = []

    def _take(self, stop_at: int) -> Optional[int]:
        with self.lock:
            if self.next >= stop_at:
                return None
            self.next += 1
            return self.next - 1

    def _client(self, deadline: float, stop_at: int, out: List) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            while time.monotonic() < deadline:
                index = self._take(stop_at)
                if index is None:
                    return
                body = json.dumps({"config": self.stream[index]})
                t0 = time.monotonic()
                conn.request("POST", "/v1/evaluate", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                payload = resp.read()
                out.append((index, time.monotonic() - t0, resp.status,
                            payload))
        finally:
            conn.close()

    def phase(self, clients: int, seconds: float = float("inf"),
              count: Optional[int] = None) -> Dict:
        """Run ``clients`` closed loops until ``seconds`` or ``count``."""
        stop_at = (min(self.next + count, len(self.stream))
                   if count is not None else len(self.stream))
        outs: List[List] = [[] for _ in range(clients)]
        before = get(self.port, "/v1/stats")[1]
        t0 = time.monotonic()
        threads = [threading.Thread(target=self._client,
                                    args=(t0 + seconds, stop_at, outs[i]))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t1 = time.monotonic()
        after = get(self.port, "/v1/stats")[1]
        samples = [s for out in outs for s in out]
        self.samples.extend(samples)
        return {"start": t0, "end": t1, "samples": samples,
                "stats": stats_delta(before, after)}


def stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    b0, b1 = before["batching"], after["batching"]
    c0, c1 = before["cache"], after["cache"]
    requests = b1["requests"] - b0["requests"]
    batches = b1["batches"] - b0["batches"]
    hits = c1["hits"] - c0["hits"]
    lookups = hits + c1["misses"] - c0["misses"]
    return {"requests_per_batch": requests / batches if batches else 0.0,
            "coalesced_ratio": ((b1["coalesced"] - b0["coalesced"]) / requests
                                if requests else 0.0),
            "hit_ratio": hits / lookups if lookups else 0.0}


def verify(samples, stream) -> int:
    """Failed requests: non-200 or a record unlike the library's."""
    from repro.dse.evaluate import evaluate_config
    expected: Dict[str, str] = {}
    failed = 0
    for index, _, status, payload in samples:
        if status != 200:
            failed += 1
            continue
        config = stream[index]
        key = canonical(config)
        if key not in expected:
            expected[key] = canonical(evaluate_config(config))
        if canonical(json.loads(payload)["record"]) != expected[key]:
            failed += 1
    return failed


def repeat_flags(stream: List[Dict]) -> List[bool]:
    seen, flags = set(), []
    for config in stream:
        key = canonical(config)
        flags.append(key in seen)
        seen.add(key)
    return flags


def _phase_figures(name: str, phase: Dict, tail: float) -> Dict[str, object]:
    """p50, the phase's named tail percentile (None if unsupported), and
    the highest percentile the phase's samples do support."""
    lat = [s[1] * 1e3 for s in phase["samples"]]
    top = highest_percentile(len(lat))
    return {f"serve.{name}.p50_ms": median(lat),
            f"serve.{name}.p{tail:g}_ms": percentile_or_none(lat, tail),
            f"serve.{name}.tail_pct": top,
            f"serve.{name}.tail_ms": percentile_or_none(lat, top),
            f"serve.{name}.samples": len(lat),
            f"serve.{name}.rps": len(lat) / (phase["end"] - phase["start"])}


def run(root: str, out_dir: str, seed: int, seconds: float,
        trace: bool) -> Dict:
    from repro.dse.spec import FULL_SPEC
    stream = config_stream(seed, FULL_SPEC.configs())
    flags = repeat_flags(stream)
    tmp_parent = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    return (_run_traced if trace else _run_untraced)(
        root, out_dir, tmp_parent, seed, seconds, stream, flags)


def _run_untraced(root, out_dir, tmp_parent, seed, seconds, stream, flags):
    setups, raw_setups = [], []
    for sample in range(SETUP_SAMPLES):
        before = speed_probe()
        server = Server(root, tmp_parent)
        raw_setups.append(server.setup_s)
        setups.append(normalise(server.setup_s,
                                (before, speed_probe())))
        if sample < SETUP_SAMPLES - 1:
            server.stop()
    try:
        load = Load(server.port, stream)
        lone = load.phase(1, seconds=seconds * LONE_SHARE)
        two = load.phase(2, seconds=seconds * (1 - LONE_SHARE))
        rss = peak_rss_mb(str(server.proc.pid))
    finally:
        server.stop()
    failed = verify(load.samples, stream)
    detail = {"seed": seed, "setup_samples_s": setups,
              "setup_raw_samples_s": raw_setups}
    detail.update(_phase_figures("lone", lone, 95))
    detail.update(_phase_figures("two_client", two, 99))
    detail["serve.repeat_share"] = (sum(flags[s[0]] for s in load.samples)
                                    / len(load.samples))
    for name, phase in (("lone", lone), ("two_client", two)):
        for key, value in phase["stats"].items():
            detail[f"serve.{name}.{key}"] = value
    return {"setup_s": median(setups), "peak_rss_mb": rss,
            "e2e": {"latency_ms": detail["serve.lone.p50_ms"],
                    "throughput_per_s": detail["serve.two_client.rps"]},
            "detail": detail, "attempted": len(load.samples),
            "failed": failed}


def _run_traced(root, out_dir, tmp_parent, seed, seconds, stream, flags):
    import layers
    import spans

    walls = []
    phases = {}
    spans_out = os.path.join(out_dir, f"serve-seed{seed}.spans.json")
    samples = []
    for traced in (False, True):
        server = Server(root, tmp_parent,
                        spans_out=spans_out if traced else None)
        try:
            load = Load(server.port, stream)
            lone = load.phase(1, count=TRACE_COUNTS[0])
            two = load.phase(2, count=TRACE_COUNTS[1])
        finally:
            server.stop()
        samples.extend(load.samples)
        walls.append(sum(p["end"] - p["start"] for p in (lone, two)))
        phases[traced] = (lone, two)

    with open(spans_out, encoding="utf-8") as fh:
        recorded = spans.from_records(json.load(fh))
    names = layers.span_names(layers.SERVE)
    table: Dict[str, float] = {}
    for phase in phases[True]:
        part = spans.layer_table(recorded, names, phase["start"],
                                 phase["end"])
        for key, value in part.items():
            table[key] = table.get(key, 0) + value
    table["trace_overhead"] = walls[1] / walls[0] - 1.0
    waits = queue_waits_ms(recorded)
    table["serve.queue.wait_ms.p50"] = median(waits) if waits else 0.0
    table["serve.queue.wait_ms.total"] = sum(waits)
    for name, phase in zip(("lone", "two_client"), phases[True]):
        stats = phase["stats"]
        table[f"serve.batching.requests_per_batch.{name}"] = \
            stats["requests_per_batch"]
        table[f"serve.batching.coalesced_ratio.{name}"] = \
            stats["coalesced_ratio"]
        table[f"serve.cache.hit_ratio.{name}"] = stats["hit_ratio"]
    traced_samples = [s for p in phases[True] for s in p["samples"]]
    table["serve.repeat_share"] = (sum(flags[s[0]] for s in traced_samples)
                                   / len(traced_samples))
    with open(os.path.join(out_dir, f"serve-evaluate-seed{seed}.trace.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": spans.chrome_events(
            recorded, 1, phases[True][0]["start"])}, fh)
    return {"layers": table, "detail": {"seed": seed},
            "attempted": len(samples), "failed": verify(samples, stream),
            "traced_wall_s": walls[1], "untraced_wall_s": walls[0]}


def queue_waits_ms(recorded) -> List[float]:
    """Per request: time in ``submit`` minus its batch's engine time.

    The batcher thread runs one ``evaluate_batch`` per batch, in batch
    order, so the n-th such span on that thread is batch n.
    """
    submits = [s for s in recorded if s.name == "serve.queue.submit"]
    engine = [s for s in recorded if s.name == "serve.engine.evaluate_batch"
              and s.parent is None]
    engine.sort(key=lambda s: s.start)
    by_index = {i + 1: s.end - s.start for i, s in enumerate(engine)}
    return [((s.end - s.start) - by_index.get((s.attrs or {}).get("batch"),
                                              0.0)) * 1e3
            for s in submits]
