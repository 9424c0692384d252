"""Design points: the two dense CIM baselines and the hybrid sparse design.

These classes turn a :class:`~repro.core.workload.Workload` into the area,
inference-power and continual-learning-EDP numbers behind the paper's
Fig. 7 and Fig. 8:

* :class:`DenseCIMDesign` ``kind='sram'`` — the ISSCC'21-class all-digital
  SRAM CIM [29]: whole dense model resident in SRAM, all arrays compute in
  parallel (8 bit-serial cycles per activation vector), large leakage.
* :class:`DenseCIMDesign` ``kind='mram'`` — the ISCAS'23-class digital
  STT-MRAM CIM [30]: near-memory row-sequential compute (rows x 8 cycles
  per vector), negligible array leakage, expensive writes.
* :class:`HybridSparseDesign` — this paper: N:M-compressed backbone in
  sparse MRAM PEs, learnable Rep-Net path in a small set of sparse SRAM PEs
  (plus transposed buffers); training writes touch SRAM only.

All latency/energy formulas mirror the functional PE simulators'
cycle-charging rules (see :mod:`repro.core.sram_pe` / ``mram_pe``), applied
analytically so paper-scale (26 MB, GMAC) workloads are tractable.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..energy.area import AreaModel, AreaReport
from ..energy.cost import CostModel, EnergyBreakdown
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..sparsity.nm import NMPattern
from .effects import effects
from .mram_pe import PIPELINE_DEPTH
from .workload import LayerWorkload, Workload, nm_storage_bits


@dataclasses.dataclass
class PerfReport:
    """Latency + energy of one workload execution on one design."""

    design: str
    phase: str                 # 'inference' | 'training_step'
    latency_s: float
    energy: EnergyBreakdown

    @property
    def energy_j(self) -> float:
        return self.energy.total_pj * 1e-12

    @property
    def avg_power_mw(self) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.energy_j / self.latency_s * 1e3

    @property
    def edp_js(self) -> float:
        """Energy-delay product (J*s) — the Fig. 8 metric."""
        return self.energy_j * self.latency_s

    def as_dict(self) -> Dict[str, float]:
        d = {"design": self.design, "phase": self.phase,
             "latency_s": self.latency_s, "avg_power_mw": self.avg_power_mw,
             "edp_js": self.edp_js}
        d.update(self.energy.as_dict())
        return d


class DenseCIMDesign:
    """A dense (no sparsity support) CIM design in one memory technology.

    ``update_scope`` controls the training study: ``'all'`` fine-tunes every
    weight (the paper's "Finetune All Weight" bars); ``'learnable'`` trains
    only the Rep-Net path ("RepNet without Sparsity") but still stores and
    updates it in this design's memory.
    """

    #: Dense weights per SRAM PIM array (128 rows x 8 weight columns).
    SRAM_ARRAY_WEIGHTS = 128 * 8
    #: Dense weights per MRAM sub-array (1024 rows x 64 INT8 words).
    MRAM_ARRAY_WEIGHTS = 1024 * 64
    MRAM_WEIGHTS_PER_ROW = 64
    #: Activation-broadcast bandwidth cap: how many arrays the shared buses
    #: and the global buffer can feed simultaneously (same cap for every
    #: design, so relative results are bandwidth-fair).
    PARALLEL_ARRAY_CAP = 256
    #: Shared activation-bus width (bits/cycle).  Every design must deliver a
    #: layer's input vector (in_dim x 8 bits) over this bus; in-memory
    #: compute can be no faster than its inputs arrive.  Sparse index-phase
    #: processing reuses each delivered vector for m phases, so it hides the
    #: bus latency that bounds the dense designs.
    ACTIVATION_BUS_BITS = 128

    def __init__(self, kind: str, update_scope: str = "all",
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        if kind not in ("sram", "mram"):
            raise ValueError(f"unknown memory kind {kind!r}")
        if update_scope not in ("all", "learnable"):
            raise ValueError(f"unknown update scope {update_scope!r}")
        self.kind = kind
        self.update_scope = update_scope
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"dense-{kind}"
        #: Per-instance activation-bus width; defaults to the class-level
        #: ACTIVATION_BUS_BITS so subclass overrides keep working.
        self.bus_bits = (self.ACTIVATION_BUS_BITS if bus_bits is None
                         else int(bus_bits))
        if self.bus_bits <= 0:
            raise ValueError(f"bus_bits must be positive, got {bus_bits}")

    # ------------------------------------------------------------------ area
    def provisioned_arrays(self, workload: Workload) -> int:
        per_array = (self.SRAM_ARRAY_WEIGHTS if self.kind == "sram"
                     else self.MRAM_ARRAY_WEIGHTS)
        return math.ceil(workload.total_weights / per_array)

    def area(self, workload: Workload) -> AreaReport:
        bits = workload.total_weights * 8
        return self.area_model.dense_design_area(bits, self.kind)

    # ------------------------------------------------------------- inference
    def _layer_vector_cycles(self, layer: LayerWorkload) -> float:
        """Cycles to stream one activation vector through ``layer``."""
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        if self.kind == "sram":
            tiles = max(1, math.ceil(layer.weights / self.SRAM_ARRAY_WEIGHTS))
            serialization = math.ceil(tiles / self.PARALLEL_ARRAY_CAP)
            return max(serialization * 8.0, bus_cycles)
        arrays = max(1, math.ceil(layer.weights / self.MRAM_ARRAY_WEIGHTS))
        rows = math.ceil(layer.weights / (arrays * self.MRAM_WEIGHTS_PER_ROW))
        return max((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _leakage_power_mw(self, workload: Workload) -> float:
        if self.kind == "sram":
            return self.cost.leakage_power_mw(
                sram_bytes=workload.total_weights, mram_arrays=0)
        return self.cost.leakage_power_mw(
            sram_bytes=0, mram_arrays=self.provisioned_arrays(workload))

    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        cycles = 0.0
        compute = 0.0
        buffer_bits = 0.0
        for layer in workload.layers:
            vectors = layer.positions * batch
            cycles += vectors * self._layer_vector_cycles(layer)
            compute += self.cost.mac_energy_pj(layer.macs * batch, self.kind)
            buffer_bits += vectors * (layer.in_dim + layer.out_dim) * 8

        latency = self.cost.cycles_to_s(cycles)
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=self.cost.buffer_energy_pj(buffer_bits))
        return PerfReport(self.name, "inference", latency, energy)

    # -------------------------------------------------------------- training
    def training_step(self, workload: Workload, batch: int = 32,
                      include_forward: bool = False) -> PerfReport:
        """The learning phase of one SGD step: backward pass + weight update.

        By default the (design-independent, inference-identical) forward pass
        is excluded: the paper attributes the Fig. 8 EDP differences to "the
        volume of weight updates" and the backward machinery, and charging
        every design its own forward cost would double-count what Fig. 7
        already compares.  Pass ``include_forward=True`` for the full step.
        """
        scope = (workload.layers if self.update_scope == "all"
                 else [l for l in workload.layers if l.learnable])

        bwd_cycles = 0.0
        bwd_compute = 0.0
        buffer_bits = 0.0
        update_bits = 0.0
        grad_operand_bits = 0.0
        for layer in scope:
            vectors = layer.positions * batch
            # Error propagation + gradient: two transposed matmuls of the
            # layer's MAC volume each.
            bwd_cycles += 2 * vectors * self._layer_vector_cycles(layer)
            bwd_compute += 2 * self.cost.mac_energy_pj(
                layer.macs * batch, self.kind)
            # Errors staged through the global buffer.
            buffer_bits += 2 * vectors * layer.out_dim * 8
            update_bits += layer.weights * 8
            # Gradient computation (G = a^T delta) needs the transposed
            # activation matrix written into the compute arrays.
            grad_operand_bits += vectors * layer.in_dim * 8

        arrays = max(1, min(self.provisioned_arrays(workload),
                            self.PARALLEL_ARRAY_CAP))
        # Transposed weights + transposed activations re-written each step.
        transpose_bits = update_bits + grad_operand_bits
        write_cycles = self.cost.write_latency_cycles(
            update_bits + transpose_bits, self.kind, parallel_arrays=arrays)

        latency = self.cost.cycles_to_s(bwd_cycles + write_cycles)
        compute = bwd_compute
        buffer = self.cost.buffer_energy_pj(buffer_bits)
        if include_forward:
            fwd = self.inference(workload, batch=batch)
            latency += fwd.latency_s
            compute += fwd.energy.compute_pj
            buffer += fwd.energy.buffer_pj
        leak_pj = self._leakage_power_mw(workload) * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj,
            compute_pj=compute,
            write_pj=self.cost.write_energy_pj(
                update_bits + transpose_bits, self.kind),
            buffer_pj=buffer)
        return PerfReport(self.name, "training_step", latency, energy)


# ---------------------------------------------------------------------------
# Layer arrays: the workload as numpy columns, shared by every hybrid design
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class LayerArrays:
    """A workload's layers as read-only numpy columns, in layer order.

    ``pairs`` is each layer's compressed (weight, index) pair count at one
    N:M density; everything else is pure geometry.  ``layers`` is the
    snapshot the columns were built from, so a cached instance can be
    checked against the workload's current layer list.
    """

    layers: Tuple[LayerWorkload, ...]
    in_dim: np.ndarray
    out_dim: np.ndarray
    positions: np.ndarray
    learnable: np.ndarray          # bool mask
    pairs: np.ndarray              # ceil(weights * density)
    learnable_index: np.ndarray    # positions of the learnable layers
    learnable_weights: int
    max_learnable_weights: int     # 0 without learnable layers
    frozen_weights: int
    frozen_pairs: int

    @classmethod
    def build(cls, layers: Tuple[LayerWorkload, ...],
              density: float) -> "LayerArrays":
        def column(values, dtype=np.int64):
            arr = np.array(values, dtype=dtype)
            arr.flags.writeable = False
            return arr
        in_dim = column([l.in_dim for l in layers])
        out_dim = column([l.out_dim for l in layers])
        learnable = column([l.learnable for l in layers], dtype=bool)
        pairs = column([math.ceil(l.weights * density) for l in layers])
        weights = in_dim * out_dim
        return cls(
            layers=layers, in_dim=in_dim, out_dim=out_dim,
            positions=column([l.positions for l in layers]),
            learnable=learnable, pairs=pairs,
            learnable_index=column(np.flatnonzero(learnable)),
            learnable_weights=int(weights[learnable].sum()),
            max_learnable_weights=int(weights[learnable].max(initial=0)),
            frozen_weights=int(weights[~learnable].sum()),
            frozen_pairs=int(pairs[~learnable].sum()))


#: Layer arrays per (workload, density), shared by every design evaluated
#: on that workload.  Written only under ``_LAYER_ARRAYS_LOCK``: serve
#: threads reach this memo through the batching worker.
_LAYER_ARRAYS: Dict[Tuple[int, float], LayerArrays] = {}
_LAYER_ARRAYS_LOCK = threading.Lock()
#: Entries kept before the memo starts evicting its oldest one.
_LAYER_ARRAYS_MAX = 64


@effects("READS_GLOBAL",
         reason="idempotent memo: an entry is served only while its layer "
                "snapshot equals the workload's current layers, and it "
                "holds what LayerArrays.build deterministically computes "
                "from them, so callers see a pure function of (layers, "
                "density)")
def layer_arrays(workload: Workload, density: float) -> LayerArrays:
    """The :class:`LayerArrays` of ``workload`` at ``density``, memoised.

    Entries are keyed by the workload's identity but served only while
    their snapshot equals ``workload.layers`` (an identity check per
    layer in the common case), so a mutated layer list is rebuilt rather
    than served stale.
    """
    layers = tuple(workload.layers)
    key = (id(workload), density)
    with _LAYER_ARRAYS_LOCK:
        cached = _LAYER_ARRAYS.get(key)
    if cached is not None and cached.layers == layers:
        return cached
    arrays = LayerArrays.build(layers, density)
    with _LAYER_ARRAYS_LOCK:
        _LAYER_ARRAYS.pop(key, None)
        while len(_LAYER_ARRAYS) >= _LAYER_ARRAYS_MAX:
            del _LAYER_ARRAYS[next(iter(_LAYER_ARRAYS))]
        _LAYER_ARRAYS[key] = arrays
    return arrays


def _ordered_sum(terms: np.ndarray) -> float:
    """``terms`` summed strictly left to right, as a per-layer loop would.

    ``np.sum`` adds pairwise and Python 3.12's ``sum`` compensates; either
    would move the low bits of the paper's figures.
    """
    if terms.size == 0:
        return 0.0
    return float(np.add.accumulate(terms, dtype=np.float64)[-1])


@dataclasses.dataclass(frozen=True, eq=False)
class _Provisioning:
    """What one hybrid design provisions for one workload (see
    :meth:`HybridSparseDesign._provision`)."""

    arrays: LayerArrays
    fwd_pes: int
    compute_pes: int               # fwd pool + equal transposed-buffer pool
    mram_arrays: int
    sram_storage_bits: int
    backbone_bits: int
    leakage_mw: float
    vector_cycles: np.ndarray      # cycles per activation vector, per layer


class HybridSparseDesign:
    """The paper's hybrid: sparse MRAM backbone + sparse SRAM learnable path.

    Provisioning (paper Secs. 4/5.2): the compressed backbone fills MRAM
    sub-arrays; the compressed Rep-Net weights are "proportionately reserved"
    in SRAM, plus a small *fixed* set of SRAM sparse compute PEs — half for
    the forward direction and half as transposed buffers for
    backpropagation — through which learnable layers are time-multiplexed.

    The per-layer charges are evaluated as numpy expressions over the
    workload's :class:`LayerArrays`, and every per-layer total is summed
    in layer order (:func:`_ordered_sum`), so the results are exactly those
    of a Python loop over the layers.  A design's parameters are fixed at
    construction; its provisioning is computed once per workload.
    """

    SRAM_PE_PAIRS = 128 * 8
    #: The compute-PE pool is sized once at design time for the *sparsest*
    #: supported pattern (the hardware's N:16-class lower bound on density);
    #: denser runtime patterns time-multiplex extra passes through it.
    REFERENCE_DENSITY = 1.0 / 8.0

    def __init__(self, pattern: NMPattern,
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        self.pattern = pattern
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"hybrid-{pattern}"
        #: Shared activation-bus width; the hybrid competes on the same bus
        #: as the dense baselines unless a sweep overrides it per point.
        self.bus_bits = (DenseCIMDesign.ACTIVATION_BUS_BITS if bus_bits is None
                         else int(bus_bits))
        if self.bus_bits <= 0:
            raise ValueError(f"bus_bits must be positive, got {bus_bits}")
        self._mram_pairs_per_row = tech.mram.row_bits // (
            tech.mram.weight_bits + tech.mram.index_bits)
        if self._mram_pairs_per_row < 1:
            raise ValueError(
                f"MRAM row ({tech.mram.row_bits} bits) cannot hold one "
                f"(weight, index) pair at {tech.mram.weight_bits}+"
                f"{tech.mram.index_bits} bits")
        self._mram_array_pairs = tech.mram.rows * self._mram_pairs_per_row
        self._provisioned: Optional[_Provisioning] = None

    # --------------------------------------------------------------- sizing
    def _provisioning(self, workload: Workload) -> _Provisioning:
        arrays = layer_arrays(workload, self.pattern.density)
        cached = self._provisioned
        if cached is None or cached.arrays is not arrays:
            cached = self._provisioned = self._provision(arrays)
        return cached

    def _provision(self, arrays: LayerArrays) -> _Provisioning:
        sram, mram = self.tech.sram, self.tech.mram
        # Forward SRAM compute PEs (paper Sec. 4): bounded by the largest
        # learnable layer, at the design's reference density (the sizing
        # is monotone in a layer's weights, so the largest layer sets it).
        fwd_pes = 1
        if arrays.learnable_index.size:
            fwd_pes = math.ceil(math.ceil(
                arrays.max_learnable_weights * self.REFERENCE_DENSITY)
                / self.SRAM_PE_PAIRS)
        mram_arrays = max(1, math.ceil(arrays.frozen_pairs
                                       / self._mram_array_pairs))
        sram_storage_bits = nm_storage_bits(
            arrays.learnable_weights, self.pattern,
            weight_bits=sram.weight_bits, index_bits=sram.index_bits)
        backbone_bits = nm_storage_bits(
            arrays.frozen_weights, self.pattern,
            weight_bits=mram.weight_bits, index_bits=mram.index_bits)
        compute_pes = 2 * fwd_pes
        sram_bytes = sram_storage_bits // 8 + compute_pes * sram.storage_bytes
        leakage_mw = self.cost.leakage_power_mw(sram_bytes=sram_bytes,
                                                mram_arrays=mram_arrays)

        # Cycles to stream one activation vector through each layer: no
        # faster than the shared bus delivers it, and no faster than ...
        bus_cycles = arrays.in_dim * 8.0 / self.bus_bits
        pairs = arrays.pairs
        # ... a learnable layer's tiles time-multiplex the fwd PE pool,
        # one index phase per group position, ...
        tiles = np.maximum(1, np.ceil(pairs / self.SRAM_PE_PAIRS))
        serialization = np.ceil(tiles / max(1, fwd_pes))
        learnable_cycles = np.maximum(
            serialization * self.pattern.m * 8.0, bus_cycles)
        # ... a frozen layer's rows pipeline through its MRAM sub-arrays.
        layer_mram_arrays = np.maximum(
            1, np.ceil(pairs / self._mram_array_pairs))
        rows = np.ceil(pairs / (layer_mram_arrays * self._mram_pairs_per_row))
        frozen_cycles = np.maximum((rows + PIPELINE_DEPTH - 1) * 8.0,
                                   bus_cycles)

        return _Provisioning(
            arrays=arrays, fwd_pes=fwd_pes, compute_pes=compute_pes,
            mram_arrays=mram_arrays,
            sram_storage_bits=sram_storage_bits, backbone_bits=backbone_bits,
            leakage_mw=leakage_mw,
            vector_cycles=np.where(arrays.learnable, learnable_cycles,
                                   frozen_cycles))

    def sram_storage_bits(self, workload: Workload) -> int:
        """Compressed Rep-Net weight storage resident in SRAM."""
        return self._provisioning(workload).sram_storage_bits

    def sram_fwd_pe_count(self, workload: Workload) -> int:
        """Forward-direction SRAM compute PEs (paper Sec. 4: bounded by the
        maximum learnable layer, at the design's reference density)."""
        return self._provisioning(workload).fwd_pes

    def sram_compute_pe_count(self, workload: Workload) -> int:
        """Total SRAM compute PEs: forward pool + equal transposed-buffer pool."""
        return self._provisioning(workload).compute_pes

    def mram_array_count(self, workload: Workload) -> int:
        return self._provisioning(workload).mram_arrays

    def backbone_compressed_bits(self, workload: Workload) -> int:
        return self._provisioning(workload).backbone_bits

    def area(self, workload: Workload) -> AreaReport:
        prov = self._provisioning(workload)
        return self.area_model.hybrid_design_area(
            prov.backbone_bits, prov.compute_pes,
            sram_storage_bits=prov.sram_storage_bits)

    # ------------------------------------------------------------- inference
    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        prov = self._provisioning(workload)
        arrays = prov.arrays
        vectors = arrays.positions * batch
        nnz_vectors = arrays.pairs * vectors
        cycles = _ordered_sum(vectors * prov.vector_cycles)
        compute = _ordered_sum(np.where(
            arrays.learnable,
            self.cost.mac_energy_pj(nnz_vectors, "sram", sparse=True),
            self.cost.mac_energy_pj(nnz_vectors, "mram", sparse=True)))
        buffer_bits = _ordered_sum(
            vectors * (arrays.in_dim + arrays.out_dim) * 8)

        latency = self.cost.cycles_to_s(cycles)
        leak_pj = prov.leakage_mw * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj, compute_pj=compute,
            buffer_pj=self.cost.buffer_energy_pj(buffer_bits))
        return PerfReport(self.name, "inference", latency, energy)

    # -------------------------------------------------------------- training
    def training_step(self, workload: Workload, batch: int = 32,
                      include_forward: bool = False) -> PerfReport:
        """Learning phase of one continual-learning step.

        Backward runs only over the learnable (Rep-Net) layers on the SRAM
        sparse compute PEs; weight updates and transposed-buffer rewrites
        touch SRAM only — the MRAM backbone is never written.  Forward is
        excluded by default for the same reason as in
        :meth:`DenseCIMDesign.training_step`.
        """
        prov = self._provisioning(workload)
        arrays = prov.arrays
        sram = self.tech.sram
        idx = arrays.learnable_index
        vectors = arrays.positions[idx] * batch
        nnz = arrays.pairs[idx]

        bwd_cycles = _ordered_sum(2 * vectors * prov.vector_cycles[idx])
        bwd_compute = _ordered_sum(2 * self.cost.mac_energy_pj(
            nnz * vectors, "sram", sparse=True))
        buffer_bits = _ordered_sum(2 * vectors * arrays.out_dim[idx] * 8)
        update_bits = _ordered_sum(nnz * sram.weight_bits)
        # Per layer, W^T is re-written into the transpose PEs, then a^T is
        # written for the masked gradient: only the activation rows feeding
        # surviving (N:M-kept) weights are needed.  Interleaved, so the
        # running total adds them in that order.
        transpose = np.empty(2 * idx.size)
        transpose[0::2] = nnz * (sram.weight_bits + sram.index_bits)
        transpose[1::2] = (vectors * arrays.in_dim[idx] * 8
                           * self.pattern.density)
        transpose_bits = _ordered_sum(transpose)

        write_cycles = self.cost.write_latency_cycles(
            update_bits + transpose_bits, "sram",
            parallel_arrays=prov.compute_pes)

        latency = self.cost.cycles_to_s(bwd_cycles + write_cycles)
        compute = bwd_compute
        buffer = self.cost.buffer_energy_pj(buffer_bits)
        if include_forward:
            fwd = self.inference(workload, batch=batch)
            latency += fwd.latency_s
            compute += fwd.energy.compute_pj
            buffer += fwd.energy.buffer_pj
        leak_pj = prov.leakage_mw * 1e-3 * latency * 1e12
        energy = EnergyBreakdown(
            leakage_pj=leak_pj,
            compute_pj=compute,
            write_pj=self.cost.write_energy_pj(
                update_bits + transpose_bits, "sram"),
            buffer_pj=buffer)
        return PerfReport(self.name, "training_step", latency, energy)
