"""``dse-sweep``: the 4500-config ``FULL_SPEC`` sweep, cold then warm.

Each pass runs ``run_sweep`` serially over a seeded permutation of the
configs, first cold, then warm.  The cold sweep starts from an empty
``DiskCache`` and evaluates and stores every config (writes); the warm
sweeps repeat it against the filled cache and only look up (reads).
Results do not depend on the order, so one pin covers every seed.  A
cost-model change moves the cold sweep and leaves the warm one alone; a
cache change does the reverse.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from typing import Dict, List

from measure import digest, median, probed

#: Warm sweeps per cold one: a warm sweep is short, so one pass takes
#: several samples of it.
WARM_REPEATS = 3


def load():
    from repro.dse import cache, engine, spec
    return {"cache": cache, "engine": engine, "spec": spec}


def prepare(program, seed: int, out_dir: str) -> Dict:
    configs = program["spec"].FULL_SPEC.configs()
    random.Random(seed).shuffle(configs)
    tmp_parent = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    return {"configs": configs, "tmp_parent": tmp_parent}


def setup(program, inputs: Dict) -> None:
    return None


def outputs_digest(program, result: Dict) -> Dict[str, str]:
    """Order-free digests of a sweep's records and its frontier."""
    records = sorted(result["records"], key=lambda r: r["key"])
    return {"records": digest(records),
            "frontier": digest(program["engine"].frontier_doc(result))}


def _sweep(program, configs, root):
    cache = program["cache"].DiskCache(root)
    os.sync()       # earlier writes must not be flushed inside the timing
    result, seconds, normalised = probed(
        lambda: program["engine"].run_sweep(configs=configs, cache=cache))
    return (seconds, normalised), result, cache.stats()


def cold_failed(program, cold: Dict, cold_stats: Dict, pins: Dict) -> int:
    """Configs failed by the cold sweep: errors, pin drift, stray hits."""
    if outputs_digest(program, cold) != pins["dse"]:
        return len(cold["records"])
    return len(cold["errors"]) + cold_stats["hits"]


def warm_failed(cold: Dict, warm: Dict, warm_stats: Dict) -> int:
    """Configs a warm sweep did not serve from the cache, or served wrong."""
    warm_by_key = {r["key"]: r for r in warm["records"]}
    drifted = sum(1 for r in cold["records"] if warm_by_key.get(r["key"]) != r)
    return max(len(cold["records"]) - warm_stats["hits"], drifted)


def run_pass(program, state, inputs: Dict, pins: Dict) -> Dict:
    root = tempfile.mkdtemp(prefix="dse-cache-", dir=inputs["tmp_parent"])
    try:
        cold_s, cold, cold_stats = _sweep(program, inputs["configs"], root)
        warm_runs = [_sweep(program, inputs["configs"], root)
                     for _ in range(WARM_REPEATS)]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    n = len(inputs["configs"])
    failed = cold_failed(program, cold, cold_stats, pins) + sum(
        warm_failed(cold, warm, stats) for _, warm, stats in warm_runs)
    return {"cold_s": cold_s, "warm_s": [w[0] for w in warm_runs],
            "configs": n, "attempted": (1 + WARM_REPEATS) * n,
            "failed": failed,
            "hit_ratio_cold": cold_stats["hits"] / n,
            "hit_ratio_warm": min(w[2]["hits"] for w in warm_runs) / n}


def report(passes: List[Dict], inputs: Dict, pins: Dict):
    n = passes[0]["configs"]
    # Normalised times (measure.probed): the host's speed drifts by a fifth
    # over seconds, and a probe run beside each sweep drifts with it.
    cold = median([p["cold_s"][1] for p in passes])
    warm = median([w[1] for p in passes for w in p["warm_s"]])
    raw_cold = median([p["cold_s"][0] for p in passes])
    raw_warm = median([w[0] for p in passes for w in p["warm_s"]])
    e2e = {"latency_ms": cold * 1e3, "throughput_per_s": n / warm}
    detail = {"dse.cold_configs_per_s": n / cold,
              "dse.warm_configs_per_s": n / warm,
              "dse.cold_configs_per_s.raw": n / raw_cold,
              "dse.warm_configs_per_s.raw": n / raw_warm,
              "passes": len(passes)}
    layers = {"dse.cache.hit_ratio.cold": passes[-1]["hit_ratio_cold"],
              "dse.cache.hit_ratio.warm": passes[-1]["hit_ratio_warm"]}
    return e2e, detail, layers, 0
