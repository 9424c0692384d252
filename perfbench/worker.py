"""One workload in its own process: ``run.py`` launches this file.

The process holds only the program and the workload's inputs, so its
peak memory is the program's, and its launch time is known to the
parent.  It prints one JSON object as its last line of output.

* default: set up, then run passes for ``--seconds`` (tracing off);
* ``--setup-only``: set up and report the set-up time, nothing else;
* ``--trace``: a warm-up set-up + pass, one untraced set-up + pass, then
  wrappers on and the same again; reports per-layer figures and writes
  the spans out.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time

MODULES = {"table1-fast": "wl_table1", "dse-sweep": "wl_dse",
           "sim-hybrid": "wl_sim"}

HERE = os.path.dirname(os.path.abspath(__file__))


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_untraced(wl, program, inputs, pins, args, imported: float):
    from measure import peak_rss_mb, run_for, speed_probe
    t0 = time.monotonic()
    state = wl.setup(program, inputs)
    setup_s = (imported - args.launched) + (time.monotonic() - t0)
    probe = speed_probe()           # the parent probed just before launch
    if args.setup_only:
        return {"setup_s": setup_s, "setup_probe_s": probe}
    passes = run_for(args.seconds,
                     lambda: wl.run_pass(program, state, inputs, pins))
    e2e, detail, _, extra_failed = wl.report(passes, inputs, pins)
    attempted = sum(p["attempted"] for p in passes)
    return {"setup_s": setup_s, "setup_probe_s": probe, "e2e": e2e,
            "detail": detail, "attempted": attempted,
            "failed": min(attempted,
                          sum(p["failed"] for p in passes) + extra_failed),
            "peak_rss_mb": peak_rss_mb()}


def run_traced(wl, program, inputs, pins, args):
    import layers
    import measure
    import spans

    measure.probe_interval_s = 0    # no probe may land inside a span
    # A warm-up pass first, so neither measured pass pays first-call costs.
    state = wl.setup(program, inputs)
    passes = [wl.run_pass(program, state, inputs, pins)]
    del state
    t0 = time.monotonic()
    state = wl.setup(program, inputs)
    passes.append(wl.run_pass(program, state, inputs, pins))
    untraced_s = time.monotonic() - t0
    del state
    gc.collect()

    for row in layers.WORKER_TABLES:
        importlib.import_module(row[1])
    recorder = spans.Recorder()
    spans.install(recorder, layers.WORKER_TABLES)
    t1 = time.monotonic()
    state = wl.setup(program, inputs)
    traced = wl.run_pass(program, state, inputs, pins)
    t2 = time.monotonic()
    passes.append(traced)

    table = spans.layer_table(recorder.spans,
                              layers.span_names(layers.WORKER_TABLES), t1, t2)
    table["trace_overhead"] = (t2 - t1) / untraced_s - 1.0
    _, detail, _, extra_failed = wl.report(passes, inputs, pins)
    table.update(wl.report([traced], inputs, pins)[2])   # the traced pass
    attempted = sum(p["attempted"] for p in passes)
    failed = min(attempted, sum(p["failed"] for p in passes) + extra_failed)
    stem = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}")
    with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": spans.chrome_events(recorder.spans,
                                                      os.getpid(), t1)}, fh)
    return {"layers": table, "detail": detail, "attempted": attempted,
            "failed": failed, "traced_wall_s": t2 - t1,
            "untraced_wall_s": untraced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() just before this launch")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    wl = importlib.import_module(MODULES[args.workload])
    pins = load_pins()
    program = wl.load()
    imported = time.monotonic()
    inputs = wl.prepare(program, args.seed, args.out_dir)
    if args.trace:
        result = run_traced(wl, program, inputs, pins, args)
    else:
        result = run_untraced(wl, program, inputs, pins, args, imported)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
