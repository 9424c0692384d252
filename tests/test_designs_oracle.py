"""Differential test: the array-form hybrid cost model against its loop oracle.

``OracleHybridDesign`` is the per-layer Python-loop implementation of
:class:`~repro.core.designs.HybridSparseDesign` that the array form
replaced, kept verbatim.  Every field of every report must be exactly
equal (``==`` on floats, no tolerance) over the whole ``FULL_SPEC``
design space and over every design the figure harnesses build, and
``evaluate_config`` records must serialize to the same canonical JSON
whichever implementation computes them.
"""

import math
import random
from typing import Optional

import pytest

from repro.core.designs import DenseCIMDesign, HybridSparseDesign, PerfReport
from repro.core.mram_pe import PIPELINE_DEPTH
from repro.core.workload import (LayerWorkload, Workload,
                                 extract_repnet_workload, paper_workload)
from repro.dse import evaluate as dse_evaluate
from repro.dse.spec import FULL_SPEC, canonical_json, normalize_config
from repro.energy.area import AreaModel, AreaReport
from repro.energy.cost import CostModel, EnergyBreakdown
from repro.energy.rram import rram_technology
from repro.energy.tech import DEFAULT_TECH, TechnologyModel
from repro.harness import ablations, fig7, fig8
from repro.repnet import build_repnet_model
from repro.sparsity.nm import NMPattern


class OracleHybridDesign:
    """The per-layer loop implementation, verbatim."""

    SRAM_PE_PAIRS = 128 * 8
    REFERENCE_DENSITY = 1.0 / 8.0

    def __init__(self, pattern: NMPattern,
                 tech: TechnologyModel = DEFAULT_TECH, name: str = "",
                 bus_bits: Optional[int] = None):
        self.pattern = pattern
        self.tech = tech
        self.cost = CostModel(tech)
        self.area_model = AreaModel(tech)
        self.name = name or f"hybrid-{pattern}"
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

    # --------------------------------------------------------------- sizing
    def _layer_pairs(self, layer: LayerWorkload) -> int:
        """Compressed (weight, index) pairs of one layer."""
        return math.ceil(layer.weights * self.pattern.density)

    def sram_storage_bits(self, workload: Workload) -> int:
        """Compressed Rep-Net weight storage resident in SRAM."""
        return workload.compressed_bits(
            self.pattern, weight_bits=self.tech.sram.weight_bits,
            index_bits=self.tech.sram.index_bits, scope="learnable")

    def sram_fwd_pe_count(self, workload: Workload) -> int:
        """Forward-direction SRAM compute PEs (paper Sec. 4: bounded by the
        maximum learnable layer, at the design's reference density)."""
        learnable = [l for l in workload.layers if l.learnable]
        if not learnable:
            return 1
        return max(math.ceil(math.ceil(l.weights * self.REFERENCE_DENSITY)
                             / self.SRAM_PE_PAIRS) for l in learnable)

    def sram_compute_pe_count(self, workload: Workload) -> int:
        """Total SRAM compute PEs: forward pool + equal transposed-buffer pool."""
        return 2 * self.sram_fwd_pe_count(workload)

    def mram_array_count(self, workload: Workload) -> int:
        frozen_pairs = sum(self._layer_pairs(l) for l in workload.layers
                           if not l.learnable)
        return max(1, math.ceil(frozen_pairs / self._mram_array_pairs))

    def backbone_compressed_bits(self, workload: Workload) -> int:
        return workload.compressed_bits(
            self.pattern, weight_bits=self.tech.mram.weight_bits,
            index_bits=self.tech.mram.index_bits, scope="frozen")

    def area(self, workload: Workload) -> AreaReport:
        return self.area_model.hybrid_design_area(
            self.backbone_compressed_bits(workload),
            self.sram_compute_pe_count(workload),
            sram_storage_bits=self.sram_storage_bits(workload))

    # ------------------------------------------------------------- inference
    def _frozen_vector_cycles(self, layer: LayerWorkload) -> float:
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        pairs = self._layer_pairs(layer)
        arrays = max(1, math.ceil(pairs / self._mram_array_pairs))
        rows = math.ceil(pairs / (arrays * self._mram_pairs_per_row))
        return max((rows + PIPELINE_DEPTH - 1) * 8.0, bus_cycles)

    def _learnable_vector_cycles(self, layer: LayerWorkload,
                                 fwd_pes: int) -> float:
        bus_cycles = layer.in_dim * 8.0 / self.bus_bits
        tiles = max(1, math.ceil(self._layer_pairs(layer) / self.SRAM_PE_PAIRS))
        serialization = math.ceil(tiles / max(1, fwd_pes))
        return max(serialization * self.pattern.m * 8.0, bus_cycles)

    def _leakage_power_mw(self, workload: Workload) -> float:
        sram_bytes = (self.sram_storage_bits(workload) // 8
                      + self.sram_compute_pe_count(workload)
                      * self.tech.sram.storage_bytes)
        return self.cost.leakage_power_mw(
            sram_bytes=sram_bytes,
            mram_arrays=self.mram_array_count(workload))

    def inference(self, workload: Workload, batch: int = 1) -> PerfReport:
        fwd_pes = self.sram_fwd_pe_count(workload)
        cycles = 0.0
        compute = 0.0
        buffer_bits = 0.0
        for layer in workload.layers:
            vectors = layer.positions * batch
            nnz = self._layer_pairs(layer)
            if layer.learnable:
                cycles += vectors * self._learnable_vector_cycles(layer, fwd_pes)
                compute += self.cost.mac_energy_pj(
                    nnz * vectors, "sram", sparse=True)
            else:
                cycles += vectors * self._frozen_vector_cycles(layer)
                compute += self.cost.mac_energy_pj(
                    nnz * vectors, "mram", sparse=True)
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
        learnable = [l for l in workload.layers if l.learnable]
        fwd_pes = self.sram_fwd_pe_count(workload)

        bwd_cycles = 0.0
        bwd_compute = 0.0
        buffer_bits = 0.0
        update_bits = 0.0
        transpose_bits = 0.0
        for layer in learnable:
            vectors = layer.positions * batch
            nnz = self._layer_pairs(layer)
            bwd_cycles += 2 * vectors * self._learnable_vector_cycles(layer, fwd_pes)
            bwd_compute += 2 * self.cost.mac_energy_pj(
                nnz * vectors, "sram", sparse=True)
            buffer_bits += 2 * vectors * layer.out_dim * 8
            pair_bits = nnz * (self.tech.sram.weight_bits
                               + self.tech.sram.index_bits)
            update_bits += nnz * self.tech.sram.weight_bits
            transpose_bits += pair_bits  # W^T re-written into transpose PEs
            # a^T written for the masked gradient: only the activation rows
            # feeding surviving (N:M-kept) weights are needed.
            transpose_bits += vectors * layer.in_dim * 8 * self.pattern.density

        write_cycles = self.cost.write_latency_cycles(
            update_bits + transpose_bits, "sram",
            parallel_arrays=self.sram_compute_pe_count(workload))

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
                update_bits + transpose_bits, "sram"),
            buffer_pj=buffer)
        return PerfReport(self.name, "training_step", latency, energy)


# --------------------------------------------------------------------------
# Comparison helpers
# --------------------------------------------------------------------------
def twin(design: HybridSparseDesign) -> OracleHybridDesign:
    """The oracle built with the same parameters as ``design``."""
    return OracleHybridDesign(design.pattern, tech=design.tech,
                              name=design.name, bus_bits=design.bus_bits)


def report_fields(report: PerfReport):
    """Every field of a report as a tuple; float fields compared with ==."""
    e = report.energy
    return (type(report.latency_s), type(e.compute_pj), report.design,
            report.phase, report.latency_s, e.leakage_pj, e.compute_pj,
            e.write_pj, e.buffer_pj, e.total_pj, report.avg_power_mw,
            report.edp_js)


def outputs(design, workload):
    """Every public result of one design on one workload."""
    area = design.area(workload)
    out = {
        "area": (dict(area.components), area.total_mm2),
        "sizing": (design.sram_storage_bits(workload),
                   design.sram_fwd_pe_count(workload),
                   design.sram_compute_pe_count(workload),
                   design.mram_array_count(workload),
                   design.backbone_compressed_bits(workload)),
    }
    for batch in (1, 32):
        out[f"inference@{batch}"] = report_fields(
            design.inference(workload, batch=batch))
        for include_forward in (False, True):
            out[f"training@{batch},fwd={include_forward}"] = report_fields(
                design.training_step(workload, batch=batch,
                                     include_forward=include_forward))
    return out


def assert_same(design, workload):
    got = outputs(design, workload)
    want = outputs(twin(design), workload)
    for key in want:
        assert got[key] == want[key], (design.name, workload.name, key)


@pytest.fixture(scope="module")
def workload():
    return paper_workload()


@pytest.fixture(scope="module")
def full_configs():
    return [normalize_config(c) for c in FULL_SPEC.configs()]


# --------------------------------------------------------------------------
# The design space
# --------------------------------------------------------------------------
class TestFullSpec:
    def test_every_config_matches_the_oracle(self, workload, full_configs):
        assert len(full_configs) == 4500
        for cfg in full_configs:
            design = HybridSparseDesign(
                NMPattern.parse(cfg["pattern"]),
                tech=dse_evaluate.build_tech(cfg), bus_bits=cfg["bus_bits"])
            assert_same(design, workload)

    def test_records_match_oracle_records(self, full_configs, monkeypatch):
        records = [canonical_json(dse_evaluate.evaluate_config(cfg))
                   for cfg in full_configs]
        monkeypatch.setattr(dse_evaluate, "HybridSparseDesign",
                            OracleHybridDesign)
        oracle = [canonical_json(dse_evaluate.evaluate_config(cfg))
                  for cfg in full_configs]
        assert records == oracle


# --------------------------------------------------------------------------
# The designs the harnesses build
# --------------------------------------------------------------------------
def harness_designs():
    designs = [d for _, d in fig7.fig7_designs()]
    designs += [d for _, _, d in fig8.fig8_configs()]
    designs += [HybridSparseDesign(p) for p in ablations.PATTERNS]
    rram = rram_technology()
    designs += [HybridSparseDesign(NMPattern(1, 8), tech=rram),  # endurance
                HybridSparseDesign(NMPattern(1, 4), tech=rram)]  # energy.rram
    return [d for d in designs if isinstance(d, HybridSparseDesign)]


class TestHarnessDesigns:
    @pytest.mark.parametrize("design", harness_designs(),
                             ids=lambda d: d.name)
    def test_matches_the_oracle(self, design, workload):
        assert_same(design, workload)


# --------------------------------------------------------------------------
# Other workloads: extracted models, degenerate layer mixes, mutation
# --------------------------------------------------------------------------
def small_workload():
    model = build_repnet_model(widths=(8, 16), strides=(1, 2),
                               repnet_width=4, seed=0)
    return extract_repnet_workload(model, 16)


def degenerate_workloads():
    frozen = LayerWorkload("frozen", 37, 11, 5, False)
    learnable = LayerWorkload("learnable", 19, 7, 3, True)
    return [Workload("frozen-only", [frozen]),
            Workload("learnable-only", [learnable]),
            Workload("one-each", [learnable, frozen])]


def random_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    return Workload(f"random{seed}", [
        LayerWorkload(f"l{i}", rng.randint(1, 5000), rng.randint(1, 3000),
                      rng.randint(1, 40000), rng.random() < 0.5)
        for i in range(60)])


class TestSummationOrder:
    """``FULL_SPEC`` densities are n/4, n/8 and n/16 and the paper
    workload's totals come out the same in any summation order, so they
    cannot tell a reordered sum from the loop's.  Seeded random layer mixes
    at densities like 1/3 can: some of their totals round differently
    unless every term is added in the loop's order."""

    @pytest.mark.parametrize("pattern", ["1:3", "2:5", "3:7"])
    def test_random_layer_mixes(self, pattern):
        design = HybridSparseDesign(NMPattern.parse(pattern), bus_bits=96)
        for seed in range(20):
            assert_same(design, random_workload(seed))


class TestOtherWorkloads:
    @pytest.mark.parametrize("pattern", ["1:4", "2:8", "3:16", "4:4"])
    @pytest.mark.parametrize("bus_bits", [32, 128])
    def test_extracted_model(self, pattern, bus_bits):
        design = HybridSparseDesign(NMPattern.parse(pattern),
                                    bus_bits=bus_bits)
        assert_same(design, small_workload())

    @pytest.mark.parametrize("wl", degenerate_workloads(),
                             ids=lambda w: w.name)
    def test_degenerate_layer_mixes(self, wl):
        assert_same(HybridSparseDesign(NMPattern(1, 4)), wl)

    def test_mutated_layers_are_not_served_stale(self):
        wl = small_workload()
        design = HybridSparseDesign(NMPattern(1, 4))
        before = design.inference(wl, batch=4).latency_s
        wl.layers.append(LayerWorkload("extra", 64, 64, 9, False))
        assert_same(design, wl)
        assert design.inference(wl, batch=4).latency_s > before
        wl.layers[0] = LayerWorkload("swapped", 640, 64, 9, True)
        assert_same(design, wl)
        del wl.layers[:]
        assert_same(design, wl)
