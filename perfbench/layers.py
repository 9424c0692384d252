"""Which program functions each per-layer span wraps, and the metric list.

Rows are ``(span name, module, qualname, wrap options)``.  One span name
may wrap several functions (``optim_step`` is both optimizers' ``step``).
Serve rows are installed in the server process by ``serve_boot.py``; the
other tables are installed in the worker process, all of them in every
workload, so a layer a workload bypasses reads 0 calls.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Row = Tuple[str, str, str, Dict[str, object]]

TABLE1: List[Row] = [
    ("table1.nn.conv2d", "repro.nn.functional", "conv2d", {}),
    ("table1.nn.im2col", "repro.nn.functional", "im2col", {}),
    ("table1.nn.col2im", "repro.nn.functional", "col2im", {}),
    ("table1.nn.backward", "repro.nn.tensor", "Tensor.backward", {}),
    ("table1.nn.optim_step", "repro.nn.optim", "Adam.step", {}),
    ("table1.nn.optim_step", "repro.nn.optim", "SGD.step", {}),
    ("table1.sparsity.prune", "repro.sparsity.pruner", "prune_model", {}),
    ("table1.quant.ptq", "repro.quant.int8", "quantize_model_ptq", {}),
    ("table1.datasets.generate", "repro.datasets.synthetic",
     "generate_task", {}),
    ("table1.datasets.generate", "repro.datasets.tasks",
     "load_downstream_task", {}),
]

DSE: List[Row] = [
    ("dse.designs.inference", "repro.core.designs",
     "HybridSparseDesign.inference", {}),
    ("dse.designs.training_step", "repro.core.designs",
     "HybridSparseDesign.training_step", {}),
    ("dse.designs.area", "repro.core.designs", "HybridSparseDesign.area", {}),
    ("dse.evaluate", "repro.dse.evaluate", "evaluate_config", {}),
    ("dse.cache.store", "repro.dse.cache", "DiskCache.store", {}),
    ("dse.cache.lookup", "repro.dse.cache", "DiskCache.lookup", {}),
    ("dse.spec", "repro.dse.spec", "normalize_config", {}),
    ("dse.spec", "repro.dse.spec", "config_key", {}),
    ("dse.pareto", "repro.dse.pareto", "pareto_reduce", {}),
]

SIM: List[Row] = [
    ("sim.accel.load_gemm", "repro.core.accelerator",
     "HybridAccelerator.load_gemm", {}),
    ("sim.csc.encode", "repro.core.csc", "CSCMatrix.from_dense", {}),
    ("sim.kernels.plan_build", "repro.core.kernels", "KernelPlan.from_csc",
     {}),
    ("sim.kernels.spmm_gather", "repro.core.kernels", "spmm_gather", {}),
    ("sim.kernels.spmm_bitserial", "repro.core.kernels", "spmm_bitserial",
     {}),
    ("sim.accel.gemm", "repro.core.accelerator", "HybridAccelerator.gemm",
     {}),
    ("sim.pe.update_weights", "repro.core.sram_pe",
     "SRAMSparsePE.update_weights", {}),
    ("sim.backprop", "repro.core.accelerator",
     "HybridAccelerator.propagate_error", {}),
    ("sim.backprop", "repro.core.accelerator",
     "HybridAccelerator.weight_gradient", {}),
]


def _set_request_id(span, args, kwargs, result) -> None:
    """``submit(key, config)``: the config key is the request id."""
    span.rid = args[1]
    span.attrs = {"batch": result[2].get("index")}
    if span.parent is not None and span.parent.rid is None:
        span.parent.rid = span.rid


SERVE: List[Row] = [
    ("serve.api.dispatch", "repro.serve.api", "ServeApp.dispatch", {}),
    # A handler thread parked until its batch lands: low priority in the
    # self-time split, so the batcher's engine time is not shared with it.
    ("serve.queue.submit", "repro.serve.batching", "BatchingQueue.submit",
     {"wait": True, "on_return": _set_request_id}),
    ("serve.engine.evaluate_batch", "repro.dse.engine", "evaluate_batch", {}),
    ("serve.dse.evaluate", "repro.dse.evaluate", "evaluate_config", {}),
    ("serve.cache.lookup", "repro.dse.cache", "DiskCache.lookup", {}),
    ("serve.cache.store", "repro.dse.cache", "DiskCache.store", {}),
]

WORKER_TABLES = TABLE1 + DSE + SIM


def span_names(table: List[Row]) -> List[str]:
    return list(dict.fromkeys(row[0] for row in table))


#: Per-layer metrics that are not a span's calls/self time: name -> unit.
EXTRA_UNITS: Dict[str, str] = {
    "dse.cache.hit_ratio.cold": "ratio",
    "dse.cache.hit_ratio.warm": "ratio",
    "serve.queue.wait_ms.p50": "ms",
    "serve.queue.wait_ms.total": "ms",
    "serve.batching.requests_per_batch.lone": "count",
    "serve.batching.requests_per_batch.two_client": "count",
    "serve.batching.coalesced_ratio.lone": "ratio",
    "serve.batching.coalesced_ratio.two_client": "ratio",
    "serve.cache.hit_ratio.lone": "ratio",
    "serve.cache.hit_ratio.two_client": "ratio",
    "serve.repeat_share": "ratio",
    "sim.backprop.failed": "count",
    "sim.model.mram_cycles": "cycles",
    "sim.model.sram_cycles": "cycles",
    "sim.model.energy_pj": "pJ",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
    "error_rate": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units: Dict[str, str] = {}
    for name in span_names(WORKER_TABLES + SERVE):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units
