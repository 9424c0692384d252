"""Differential bit-exactness suite for the sparse-PE kernel layer.

Every (pattern, batch, shape) workload is executed once per registered
kernel implementation (``reference``, ``fast``) plus plain
``activations @ dense``, and all of them must agree bit-for-bit on int64,
for both kernel families (MRAM gather and SRAM bit-serial).  A second
class pins the switch's purity: every ``PEStats`` counter must be
identical under every implementation.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.csc import CSCMatrix
from repro.core.kernels import (DEFAULT_KERNEL, KERNEL_ENV_VAR,
                                KERNEL_IMPLEMENTATIONS, KernelPlan,
                                resolve_kernel, spmm_bitserial, spmm_gather)
from repro.core.mram_pe import MRAMDensePE, MRAMPEConfig, MRAMSparsePE
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.sparsity import NMPattern, compute_nm_mask

PATTERNS = [NMPattern(1, 4), NMPattern(2, 8), NMPattern(1, 8),
            NMPattern(2, 16)]
PATTERN_IDS = [str(p) for p in PATTERNS]
BATCHES = [1, 7, 16]
INPUT_BITS = 8


def nm_sparse(rng, shape, pattern):
    """Random signed-8-bit matrix pruned to the N:M pattern."""
    dense = rng.integers(-128, 128, size=shape)
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64)


def activations_for(rng, batch, in_dim):
    return rng.integers(-128, 128, size=(batch, in_dim), dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC5C)


def assert_all_impls_equal(plan, x, dense):
    """fast == reference == x @ dense, for both kernel families."""
    expected = x.astype(np.int64) @ dense
    gather = {impl: spmm_gather(plan, x, impl=impl)
              for impl in KERNEL_IMPLEMENTATIONS}
    bitserial = {impl: spmm_bitserial(plan, x, INPUT_BITS, impl=impl)
                 for impl in KERNEL_IMPLEMENTATIONS}
    for impl in KERNEL_IMPLEMENTATIONS:
        assert gather[impl].dtype == np.int64
        assert bitserial[impl].dtype == np.int64
        np.testing.assert_array_equal(gather[impl], expected)
        np.testing.assert_array_equal(bitserial[impl], expected)


class TestDifferentialSweep:
    """Seeded-random sweep: patterns x batches x shapes."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_random_nm_workloads(self, rng, pattern, batch):
        m = pattern.m
        for out_dim in (1, 8, 19):
            w = nm_sparse(rng, (m * 8, out_dim), pattern)
            csc = CSCMatrix.from_dense(w, pattern)
            plan = KernelPlan.from_csc(csc)
            x = activations_for(rng, batch, w.shape[0])
            assert_all_impls_equal(plan, x, w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_in_dim_not_multiple_of_m(self, rng, pattern):
        """Ragged reduction dims are legal with strict=False."""
        m = pattern.m
        in_dim = m * 5 + max(1, m // 2)
        w = np.zeros((in_dim, 6), dtype=np.int64)
        nz = rng.random((in_dim, 6)) < 0.3
        w[nz] = rng.integers(-128, 128, size=int(nz.sum()))
        csc = CSCMatrix.from_dense(w, pattern, strict=False)
        plan = KernelPlan.from_csc(csc)
        for batch in BATCHES:
            assert_all_impls_equal(plan, activations_for(rng, batch, in_dim),
                                   w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_empty_columns(self, rng, pattern):
        """Columns with zero non-zeros are skipped identically."""
        m = pattern.m
        w = nm_sparse(rng, (m * 4, 9), pattern)
        w[:, [0, 3, 8]] = 0
        csc = CSCMatrix.from_dense(w, pattern)
        plan = KernelPlan.from_csc(csc)
        assert_all_impls_equal(plan, activations_for(rng, 7, w.shape[0]), w)

    def test_all_zero_matrix(self, rng):
        pattern = NMPattern(1, 4)
        w = np.zeros((16, 5), dtype=np.int64)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        assert plan.nnz == 0
        assert_all_impls_equal(plan, activations_for(rng, 3, 16), w)

    def test_extreme_operands(self):
        """INT8 corner values exercise the two's-complement MSB path."""
        pattern = NMPattern(1, 4)
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0], w[4, 1] = -128, 127
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        x = np.array([[-128, 0, 0, 0, 127, 0, 0, 0],
                      [127, 0, 0, 0, -128, 0, 0, 0]])
        assert_all_impls_equal(plan, x, w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_pe_models_agree_across_kernels(self, rng, pattern, batch):
        """End-to-end PE matmuls match under both kernel settings."""
        w_sram = nm_sparse(rng, (128, 8), pattern)
        w_mram = nm_sparse(rng, (pattern.m * 16, 32), pattern)
        x_sram = activations_for(rng, batch, 128)
        x_mram = activations_for(rng, batch, w_mram.shape[0])
        for cls, cfg, w, x in [
                (SRAMSparsePE, SRAMPEConfig(), w_sram, x_sram),
                (MRAMSparsePE, MRAMPEConfig(), w_mram, x_mram)]:
            expected = x @ w
            for impl in KERNEL_IMPLEMENTATIONS:
                pe = cls(cfg, kernel=impl)
                pe.load(w, pattern)
                np.testing.assert_array_equal(pe.matmul(x), expected)


class TestPlan:
    def test_decode_roundtrip(self, rng):
        pattern = NMPattern(2, 8)
        w = nm_sparse(rng, (64, 11), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        np.testing.assert_array_equal(plan.decode(), w)

    def test_plan_layout(self, rng):
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (32, 6), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        assert plan.nnz == int((w != 0).sum())
        assert plan.col_ptr[0] == 0 and plan.col_ptr[-1] == plan.nnz
        assert plan.gather_rows.shape == (plan.max_column_nnz, 6)
        # padding slots must be (row 0, value 0) so they contribute nothing
        for c, _rows, vals in plan.column_slices():
            pad = plan.gather_values[len(vals):, c]
            np.testing.assert_array_equal(pad, 0)

    def test_shape_mismatch_raises(self, rng):
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (16, 2), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        with pytest.raises(ValueError):
            spmm_gather(plan, np.zeros((1, 17), dtype=np.int64))
        with pytest.raises(ValueError):
            spmm_bitserial(plan, np.zeros((1, 17), dtype=np.int64),
                           INPUT_BITS)


class TestDispatch:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel() == DEFAULT_KERNEL == "fast"

    def test_env_var_switch(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert resolve_kernel() == "reference"
        # an explicit argument beats the environment
        assert resolve_kernel("fast") == "fast"

    def test_unknown_impl_rejected(self, monkeypatch):
        for name in ("turbo", "flat"):
            with pytest.raises(ValueError, match="unknown kernel"):
                resolve_kernel(name)
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            with pytest.raises(ValueError, match="unknown kernel"):
                resolve_kernel()

    def test_env_var_reaches_pe(self, rng, monkeypatch):
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (32, 4), pattern)
        x = activations_for(rng, 2, 32)
        outs = {}
        for impl in KERNEL_IMPLEMENTATIONS:
            monkeypatch.setenv(KERNEL_ENV_VAR, impl)
            pe = SRAMSparsePE()
            pe.load(w, pattern)
            outs[impl] = pe.matmul(x)
        for impl in KERNEL_IMPLEMENTATIONS[1:]:
            np.testing.assert_array_equal(outs["reference"], outs[impl])


class TestFloatActivationRejection:
    """Float activations must fail loudly, never truncate silently."""

    def test_sram_sparse_rejects_floats(self, rng):
        pattern = NMPattern(1, 4)
        pe = SRAMSparsePE()
        pe.load(nm_sparse(rng, (32, 4), pattern), pattern)
        with pytest.raises(TypeError, match="consumes integer activations"):
            pe.matmul(np.ones((1, 32), dtype=np.float64))

    def test_mram_dense_rejects_floats(self, rng):
        pe = MRAMDensePE()
        pe.load(rng.integers(-8, 8, size=(16, 4)))
        with pytest.raises(TypeError, match="consumes integer activations"):
            pe.matmul(np.full((1, 16), 1.9))


class TestStatsInvariance:
    """The kernel switch must be observably pure: identical PEStats."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_sram_stats_identical(self, rng, pattern):
        w = nm_sparse(rng, (128, 8), pattern)
        w2 = nm_sparse(rng, (128, 8), pattern)
        x = activations_for(rng, 5, 128)
        stats = {}
        for impl in KERNEL_IMPLEMENTATIONS:
            pe = SRAMSparsePE(kernel=impl)
            pe.load(w, pattern)
            pe.matmul(x)
            pe.update_weights(w2, pattern)
            pe.matmul(x)
            stats[impl] = pe.stats.as_dict()
        for impl in KERNEL_IMPLEMENTATIONS[1:]:
            assert stats["reference"] == stats[impl]

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_mram_stats_identical(self, rng, pattern):
        w = nm_sparse(rng, (pattern.m * 16, 32), pattern)
        x = activations_for(rng, 5, w.shape[0])
        stats = {}
        for impl in KERNEL_IMPLEMENTATIONS:
            pe = MRAMSparsePE(kernel=impl)
            pe.load(w, pattern)
            pe.matmul(x)
            pe.matmul(x[:2])
            stats[impl] = pe.stats.as_dict()
        for impl in KERNEL_IMPLEMENTATIONS[1:]:
            assert stats["reference"] == stats[impl]

    def test_every_counter_compared(self):
        """Guard: the dict comparison above covers all PEStats fields."""
        from repro.core.stats import PEStats
        pe = SRAMSparsePE()
        assert set(pe.stats.as_dict()) == \
            {f.name for f in dataclasses.fields(PEStats)}
