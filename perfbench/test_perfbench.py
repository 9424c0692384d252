"""Self-tests of the benchmark's own logic.

Run from the checkout root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import wl_table1  # noqa: E402
from worker import load_pins  # noqa: E402


# ------------------------------------------------------------ percentiles
def test_percentile_needs_ten_samples_beyond():
    assert measure.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(list(range(19)), 50)
    assert measure.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        measure.percentile(list(range(999)), 99)
    assert measure.percentile_or_none(list(range(100)), 95) is None
    assert measure.highest_percentile(88) == 88
    assert measure.highest_percentile(1000) == 99
    assert measure.highest_percentile(10) == 0
    for n in (20, 88, 150, 999):
        q = measure.highest_percentile(n)
        measure.percentile(list(range(n)), q)
        with pytest.raises(ValueError):
            measure.percentile(list(range(n)), q + 1)


# ---------------------------------------------------------- speed probe
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_probed_time_cancels_a_machine_slowdown(monkeypatch):
    clock = FakeClock()
    probes = iter([0.02, 0.03])     # the machine runs at 0.4x nominal

    def probe():
        return next(probes)

    def work():
        clock.now += 3.0
        return "out"

    monkeypatch.setattr(measure.time, "monotonic", clock)
    monkeypatch.setattr(measure, "speed_probe", probe)
    monkeypatch.setattr(measure, "probe_interval_s", 0)
    result, seconds, normalised = measure.probed(work)
    assert result == "out" and seconds == 3.0
    assert normalised == pytest.approx(3.0 * measure.PROBE_NOMINAL_S / 0.025)


def test_probes_inside_a_segment_are_left_out_of_its_time(monkeypatch):
    monkeypatch.setattr(measure, "probe_interval_s", 0.1)
    probes = []

    def probe():
        t0 = time.monotonic()
        time.sleep(0.02)
        probes.append(time.monotonic() - t0)
        return probes[-1]

    def work():
        for _ in range(300):
            time.sleep(0.002)

    monkeypatch.setattr(measure, "speed_probe", probe)
    t0 = time.monotonic()
    _, seconds, normalised = measure.probed(work)
    wall = time.monotonic() - t0
    assert len(probes) >= 4                 # before, inside, after
    assert seconds == pytest.approx(wall - sum(probes), abs=0.01)
    assert normalised == pytest.approx(
        seconds * measure.PROBE_NOMINAL_S * len(probes) / sum(probes))


# -------------------------------------------------------------- self time
def test_self_time_subtracts_nested_wrappers(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "monotonic", clock)
    recorder = spans.Recorder()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = recorder.wrap(leaf, "leaf")
    wrapped_middle = recorder.wrap(middle, "middle")
    wrapped_outer = recorder.wrap(outer, "outer")
    clock.now = 10.0
    wrapped_outer()                 # 3 + (1 + 2 + 2 + 0.5) = 8.5 s
    clock.now += 1.5                # outside every span
    table = spans.layer_table(recorder.spans, ["outer", "middle", "leaf",
                                               "never"], 10.0, clock.now)
    assert table["outer.self_s"] == pytest.approx(3.0)
    assert table["middle.self_s"] == pytest.approx(1.5)
    assert table["leaf.self_s"] == pytest.approx(4.0)
    assert table["leaf.calls"] == 2
    assert table["never.calls"] == 0 and table["never.self_s"] == 0.0
    assert table["unattributed_s"] == pytest.approx(1.5)
    parents = {s.name: s.parent.name if s.parent else None
               for s in recorder.spans}
    assert parents == {"leaf": "middle", "middle": "outer", "outer": None}


def _span(name, start, end, thread, wait=False, parent=None):
    span = spans.Span(name, parent, wait)
    span.start, span.end, span.thread = start, end, thread
    return span


def test_self_time_splits_threads_and_yields_to_work():
    # Thread 1 waits 0..10 for thread 2's work at 4..6; thread 3 works
    # 5..7 alongside.  Self times plus unattributed equal the window.
    waiting = _span("submit", 0.0, 10.0, 1, wait=True)
    work = _span("engine", 4.0, 6.0, 2)
    other = _span("dispatch", 5.0, 7.0, 3)
    table = spans.layer_table([waiting, work, other],
                              ["submit", "engine", "dispatch"], 0.0, 12.0)
    assert table["engine.self_s"] == pytest.approx(1.5)
    assert table["dispatch.self_s"] == pytest.approx(1.5)
    assert table["submit.self_s"] == pytest.approx(7.0)
    total = sum(v for k, v in table.items() if k.endswith(".self_s"))
    assert total + table["unattributed_s"] == pytest.approx(12.0)


def test_wrappers_keep_thread_stacks_apart():
    recorder = spans.Recorder()
    barrier = threading.Barrier(2)
    inner = recorder.wrap(lambda: barrier.wait(timeout=5), "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    for span in recorder.spans:
        if span.name == "inner":
            assert span.parent.name == "outer"
            assert span.parent.thread == span.thread


def test_span_records_round_trip():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda: None, "inner")
    recorder.wrap(lambda: inner(), "outer")()
    back = spans.from_records(json.loads(json.dumps(
        spans.span_records(recorder.spans))))
    by_name = {s.name: s for s in back}
    assert by_name["inner"].parent is by_name["outer"]
    assert by_name["inner"].depth == 1 and by_name["outer"].depth == 0


# -------------------------------------------------------- correctness pins
def test_table1_pin_catches_a_perturbed_accuracy():
    pins = load_pins()
    pin = pins["table1"]["0"]
    result = {"base_accuracy_dense": pin["base_accuracy_dense"],
              "tasks": ["pets", "cifar10"],
              "rows": [{"backbone@base": r[0], "pets": r[1], "cifar10": r[2]}
                       for r in pin["rows"]]}
    assert wl_table1.check(result, 0, pins) == 0
    result["rows"][3]["pets"] += 1e-9
    assert wl_table1.check(result, 0, pins) == 1
    result["rows"][3]["pets"] = 1.5            # unpinned seeds: range check
    assert wl_table1.check(result, 10 ** 9, pins) == 1


def test_dse_pin_catches_a_perturbed_record():
    import wl_dse
    from repro.dse.spec import FULL_SPEC
    program = wl_dse.load()
    cold = program["engine"].run_sweep(configs=FULL_SPEC.configs())
    warm = copy.deepcopy(cold)
    n = len(cold["records"])
    pins = load_pins()
    assert wl_dse.cold_failed(program, cold, {"hits": 0}, pins) == 0
    assert wl_dse.warm_failed(cold, warm, {"hits": n}) == 0
    warm["records"][7]["metrics"]["area_mm2"] *= 1.0000001
    assert wl_dse.warm_failed(cold, warm, {"hits": n}) == 1
    assert wl_dse.warm_failed(cold, cold, {"hits": n - 3}) == 3
    assert wl_dse.cold_failed(program, cold, {"hits": 2}, pins) == 2
    cold["records"][0]["metrics"]["area_mm2"] *= 1.0000001
    assert wl_dse.cold_failed(program, cold, {"hits": 0}, pins) == n


def test_sim_pin_catches_perturbed_counts_and_outputs():
    import wl_sim
    pins = load_pins()
    pin = pins["sim"]["0"]
    passes = [{"model": dict(pin["model"]), "digest": pin["digest"]},
              {"model": dict(pin["model"]), "digest": "other parity"}]
    inputs = {"seed": 0}
    assert wl_sim.check_model(passes, inputs, pins) == 0
    passes[1]["model"]["sram_cycles"] += 1
    assert wl_sim.check_model(passes, inputs, pins) == 1
    passes[1]["model"] = dict(pin["model"])
    passes[0]["digest"] = "0" * 64
    assert wl_sim.check_model(passes, inputs, pins) == 2


def test_sim_weights_follow_the_pattern():
    import numpy as np
    import wl_sim
    from repro.sparsity.nm import NMPattern, verify_nm
    rng = np.random.default_rng(3)
    w = wl_sim.nm_weights(rng, 147, 64)
    assert w.dtype == np.int8
    assert verify_nm(w, NMPattern(1, 4), axis=0)
    w2 = wl_sim.same_support(rng, w)
    assert ((w2 != 0) == (w != 0)).all() and not (w2 == w).all()


def test_serve_verify_catches_a_perturbed_record():
    import wl_serve
    from repro.dse.evaluate import evaluate_config
    from repro.dse.spec import FULL_SPEC
    stream = FULL_SPEC.configs()[:2]
    good = [json.dumps({"record": evaluate_config(c)}).encode()
            for c in stream]
    samples = [(0, 0.01, 200, good[0]), (1, 0.01, 200, good[1])]
    assert wl_serve.verify(samples, stream) == 0
    bad = json.loads(good[1])
    bad["record"]["metrics"]["density"] += 1e-12
    samples[1] = (1, 0.01, 200, json.dumps(bad).encode())
    assert wl_serve.verify(samples, stream) == 1
    samples.append((0, 0.01, 503, b"{}"))
    assert wl_serve.verify(samples, stream) == 2


def test_serve_stream_repeats_about_half():
    import wl_serve
    from repro.dse.spec import FULL_SPEC
    stream = wl_serve.config_stream(5, FULL_SPEC.configs())
    assert stream == wl_serve.config_stream(5, FULL_SPEC.configs())
    share = sum(wl_serve.repeat_flags(stream)) / len(stream)
    assert 0.45 < share < 0.55


# ---------------------------------------------------------------- bounds
def regressed(parent, child, bound: float, better: str) -> bool:
    """A regression: the child's median is worse than the parent's by more
    than ``bound`` (a share of the parent's median)."""
    p, c = measure.median(parent), measure.median(child)
    worse = (c - p) / p if better == "lower" else (p - c) / p
    return worse > bound


def test_bounds_flag_a_25_percent_slowdown():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # A fake workload: ten runs with 2% jitter, then the same made 25%
    # slower (or 25% less throughput for higher-is-better metrics).
    jitter = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.015, 0.985]
    for metric in spec["end_to_end"]:
        base = [100.0 * j for j in jitter]
        slow = ([v * 1.25 for v in base] if metric["better"] == "lower"
                else [v / 1.25 for v in base])
        assert regressed(base, slow, metric["bound"], metric["better"]), \
            metric["name"]
        assert not regressed(base, list(reversed(base)), metric["bound"],
                             metric["better"])
