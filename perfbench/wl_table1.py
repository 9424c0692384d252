"""``table1-fast``: Table 1 training, ``run_table1(Table1Config.fast())``.

The slowest path users run.  It exercises only ``repro.nn``, ``repnet``,
``sparsity``, ``quant`` and ``datasets``: the bypass workload for
changes to the cost model, the cache, serving and the PE kernels.
"""

from __future__ import annotations

from typing import Dict, List

from measure import median, probed


def load():
    from repro.harness import table1
    return table1


def prepare(program, seed: int, out_dir: str) -> Dict:
    config = program.Table1Config.fast()
    config.seed = seed
    return {"seed": seed, "config": config}


def setup(program, inputs: Dict) -> None:
    return None


def accuracy_cells(result: Dict) -> List:
    """Every accuracy the run produces, in a fixed order."""
    return ([result["base_accuracy_dense"]]
            + [[row["backbone@base"]] + [row[t] for t in result["tasks"]]
               for row in result["rows"]])


def check(result: Dict, seed: int, pins: Dict) -> int:
    """Number of accuracy cells that are wrong.

    A seed with a pin must reproduce it exactly; any other seed is held
    to the table's shape and to accuracies in [0, 1].
    """
    cells = accuracy_cells(result)
    flat = [cells[0]] + [v for row in cells[1:] for v in row]
    wrong = sum(1 for v in flat if not 0.0 <= v <= 1.0)
    pin = pins["table1"].get(str(seed))
    if pin is not None:
        expected = [pin["base_accuracy_dense"]] + [
            v for row in pin["rows"] for v in row]
        if len(expected) != len(flat):
            return len(expected)
        wrong = sum(1 for a, b in zip(flat, expected) if a != b)
    return wrong


def run_pass(program, state, inputs: Dict, pins: Dict) -> Dict:
    result, raw_wall, wall = probed(
        lambda: program.run_table1(inputs["config"]))
    cells = len(result["rows"]) * (1 + len(result["tasks"])) + 1
    return {"wall_s": wall, "raw_wall_s": raw_wall, "attempted": cells,
            "failed": check(result, inputs["seed"], pins),
            "tasks_trained": len(result["rows"]) * len(result["tasks"])}


def report(passes: List[Dict], inputs: Dict, pins: Dict):
    # Normalised times (measure.probed): the host's speed drifts by a fifth
    # over seconds, and probes run before and after the pass drift with it.
    walls = [p["wall_s"] for p in passes]
    median_wall = median(walls)
    e2e = {"latency_ms": median_wall * 1e3,
           "throughput_per_s": sum(p["tasks_trained"] for p in passes)
           / sum(walls)}
    detail = {"table1.wall_s": median_wall,
              "table1.wall_s.raw": median([p["raw_wall_s"] for p in passes]),
              "passes": len(passes),
              "pinned_seed": str(inputs["seed"]) in pins["table1"]}
    return e2e, detail, {}, 0
