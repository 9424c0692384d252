"""Property suite for the deterministic pattern corpus (``repro.corpus``).

Three layers of guarantees, in order of severity:

1. **Structure**: every generated matrix obeys its class contract —
   exact N:M compliance per aligned group, exact magnitude-pruned
   counts, aligned block support, int8-range non-zero values.
2. **Determinism**: matrices and manifests are a pure function of the
   pinned seed and the item name — stable across calls and enumeration
   order.
3. **The committed pin**: the repo's checked-in manifest regenerates
   byte-for-byte, and the CLI's exit codes distinguish clean (0) from
   drifted (2).
"""

import json

import numpy as np
import pytest

from repro.corpus import (BLOCK_DENSITY, CORPUS_SEED, RAND_DENSITY, SHAPES,
                          build_manifest, check_manifest, content_hash,
                          corpus_items, generate, generate_item, item_seed,
                          load_manifest, pattern_classes, render_manifest,
                          render_stats_table)
from repro.corpus.__main__ import main as corpus_main
from repro.corpus.manifest import MANIFEST_PATH, MANIFEST_SCHEMA
from repro.sparsity import NMPattern, verify_nm

NM_CLASSES = {"nm_1_4": NMPattern(1, 4), "nm_2_4": NMPattern(2, 4),
              "nm_1_8": NMPattern(1, 8), "nm_2_16": NMPattern(2, 16)}
MAG_CLASSES = {"mag_50": 0.50, "mag_25": 0.25, "mag_10": 0.10}
BLOCK_CLASSES = {"block_4x4": 4, "block_8x8": 8}

ITEMS = {item.name: item for item in corpus_items()}


def items_of(pattern_class):
    return [i for i in corpus_items() if i.pattern_class == pattern_class]


class TestEnumeration:
    def test_full_cross_product(self):
        items = corpus_items()
        assert len(items) == len(pattern_classes()) * len(SHAPES)
        assert len({i.name for i in items}) == len(items)
        for item in items:
            assert item.name == \
                f"{item.pattern_class}_{item.shape[0]}x{item.shape[1]}"

    def test_shapes_cover_paper_geometries(self):
        assert (128, 8) in SHAPES and (256, 32) in SHAPES

    def test_generate_item_by_name_and_unknown(self):
        item = items_of("mag_50")[0]
        np.testing.assert_array_equal(generate_item(item.name),
                                      generate(item))
        with pytest.raises(KeyError, match="nope"):
            generate_item("nope")


class TestValueContract:
    """All classes: int64 storage, |w| in [1, 127] on the support."""

    @pytest.mark.parametrize("name", sorted(ITEMS))
    def test_values_are_nonzero_int8_range(self, name):
        w = generate(ITEMS[name])
        assert w.dtype == np.int64
        assert w.shape == ITEMS[name].shape
        support = w[w != 0]
        assert support.size > 0
        assert np.abs(support).min() >= 1
        assert np.abs(support).max() <= 127


class TestClassStructure:
    @pytest.mark.parametrize("cls", sorted(NM_CLASSES))
    def test_nm_exact_compliance(self, cls):
        pattern = NM_CLASSES[cls]
        for item in items_of(cls):
            w = generate(item)
            assert verify_nm(w != 0, pattern, axis=0)
            # exactly n survivors per aligned group, in every column
            groups = (w != 0).reshape(-1, pattern.m, w.shape[1])
            np.testing.assert_array_equal(groups.sum(axis=1), pattern.n)

    @pytest.mark.parametrize("cls", sorted(MAG_CLASSES))
    def test_magnitude_exact_counts(self, cls):
        density = MAG_CLASSES[cls]
        for item in items_of(cls):
            w = generate(item)
            assert np.count_nonzero(w) == int(round(density * w.size))

    @pytest.mark.parametrize("cls", sorted(BLOCK_CLASSES))
    def test_block_support_is_tile_aligned(self, cls):
        blk = BLOCK_CLASSES[cls]
        for item in items_of(cls):
            w = generate(item)
            rows, cols = item.shape
            tiles = (w != 0).reshape(rows // blk, blk, cols // blk, blk)
            occupancy = tiles.transpose(0, 2, 1, 3).reshape(
                -1, blk * blk).sum(axis=1)
            # every tile is either fully kept or fully dropped
            assert set(np.unique(occupancy)) <= {0, blk * blk}
            kept = int((occupancy == blk * blk).sum())
            assert kept == int(round(BLOCK_DENSITY * occupancy.size))

    def test_uniform_random_exact_count(self):
        for item in items_of("rand_30"):
            w = generate(item)
            size = item.shape[0] * item.shape[1]
            assert np.count_nonzero(w) == int(round(RAND_DENSITY * size))


class TestDeterminism:
    def test_item_seed_depends_on_name_only(self):
        assert item_seed("mag_50_128x8").entropy == \
            item_seed("mag_50_128x8").entropy
        assert item_seed("mag_50_128x8").entropy != \
            item_seed("mag_25_128x8").entropy
        assert CORPUS_SEED in item_seed("mag_50_128x8").entropy

    def test_regeneration_is_bit_identical(self):
        item = items_of("rand_30")[1]
        np.testing.assert_array_equal(generate(item), generate(item))

    def test_content_hash_sensitivity(self):
        w = generate(items_of("mag_50")[0])
        assert content_hash(w) == content_hash(w.copy())
        tampered = w.copy()
        tampered[0, 0] += 1
        assert content_hash(tampered) != content_hash(w)
        # dtype is part of the hash even when the bytes agree
        assert content_hash(w.astype(np.uint64)) != content_hash(w)

    def test_manifest_stable_across_in_process_builds(self):
        assert render_manifest(build_manifest()) == \
            render_manifest(build_manifest())


class TestCommittedManifest:
    """The repo pin: benchmarks/corpus/CORPUS_MANIFEST.json."""

    def test_committed_manifest_regenerates_exactly(self):
        assert check_manifest(MANIFEST_PATH) == []

    def test_committed_bytes_are_canonical(self):
        with open(MANIFEST_PATH) as f:
            committed = f.read()
        assert committed == render_manifest(load_manifest(MANIFEST_PATH))

    def test_manifest_shape(self):
        doc = load_manifest(MANIFEST_PATH)
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["seed"] == CORPUS_SEED
        names = [e["name"] for e in doc["items"]]
        assert names == [i.name for i in corpus_items()]
        for entry in doc["items"]:
            assert set(entry) == {"name", "pattern_class", "shape", "nnz",
                                  "density", "col_nnz_min", "col_nnz_max",
                                  "sha256"}

    def test_check_reports_tampered_entries(self, tmp_path):
        doc = load_manifest(MANIFEST_PATH)
        doc["items"][3]["sha256"] = "0" * 64
        bad = tmp_path / "tampered.json"
        bad.write_text(render_manifest(doc))
        problems = check_manifest(str(bad))
        assert len(problems) == 1
        name = doc["items"][3]["name"]
        assert problems[0] == f"{name}: drifted (sha256)"

    def test_check_reports_missing_and_extra_entries(self, tmp_path):
        doc = load_manifest(MANIFEST_PATH)
        dropped = doc["items"].pop(0)["name"]
        doc["items"].append(dict(doc["items"][0], name="zzz_bogus_1x1"))
        bad = tmp_path / "edited.json"
        bad.write_text(render_manifest(doc))
        problems = check_manifest(str(bad))
        assert f"{dropped}: missing from manifest" in problems
        assert "zzz_bogus_1x1: in manifest but not in corpus" in problems


class TestCli:
    def test_check_clean_exits_zero(self, capsys):
        assert corpus_main(["--check", MANIFEST_PATH]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_check_drift_exits_two(self, tmp_path, capsys):
        doc = load_manifest(MANIFEST_PATH)
        doc["items"][0]["nnz"] += 1
        bad = tmp_path / "drifted.json"
        bad.write_text(render_manifest(doc))
        assert corpus_main(["--check", str(bad)]) == 2
        assert "drifted" in capsys.readouterr().err

    def test_out_writes_committed_bytes(self, tmp_path):
        out = tmp_path / "fresh.json"
        assert corpus_main(["--out", str(out)]) == 0
        with open(MANIFEST_PATH) as f:
            assert out.read_text() == f.read()

    def test_stats_file_and_stdout_table(self, tmp_path, capsys):
        stats = tmp_path / "stats.txt"
        assert corpus_main(["--stats", str(stats)]) == 0
        table = stats.read_text()
        assert "mag_50_128x8" in table
        capsys.readouterr()
        assert corpus_main([]) == 0
        assert "mag_50_128x8" in capsys.readouterr().out

    def test_stats_table_matches_manifest(self):
        table = render_stats_table(load_manifest(MANIFEST_PATH))
        for item in corpus_items():
            assert item.name in table
