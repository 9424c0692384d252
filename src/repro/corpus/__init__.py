"""DLMC-style sparse weight-pattern corpus (deterministic, hash-pinned).

A small benchmark corpus in the spirit of the DLMC sparse-matrix
collection: every (pattern-class x shape) pair yields one int8-range
weight matrix generated from a pinned seed, so kernel throughput can be
tracked per *pattern class* instead of only at the paper's two
geometries.  The generator set spans the regimes compressed-CIM
accelerators are evaluated on:

* ``nm_N_M`` — N:M structured sparsity (the paper's own regime),
* ``mag_P`` — unstructured magnitude pruning at P% density,
* ``block_BxB`` — structured block sparsity,
* ``rand_30`` — pathological uniform-random scatter (worst-case
  locality for any plan-based kernel).

Every item's RNG stream is derived from :data:`CORPUS_SEED` and a hash
of the item name alone — never from enumeration order — so regeneration
is byte-identical for any subset or order of items, and the committed
manifest of content hashes (:data:`repro.corpus.manifest.MANIFEST_PATH`)
pins the corpus in CI.
"""

from .generators import (BLOCK_DENSITY, CORPUS_SEED, RAND_DENSITY, SHAPES,
                         CorpusItem, corpus_items, generate, generate_item,
                         item_seed, pattern_classes)
from .manifest import (MANIFEST_PATH, MANIFEST_SCHEMA, build_manifest,
                       check_manifest, content_hash, load_manifest,
                       render_manifest, render_stats_table, save_manifest)

__all__ = [
    "BLOCK_DENSITY", "CORPUS_SEED", "RAND_DENSITY", "SHAPES", "CorpusItem",
    "corpus_items", "generate", "generate_item", "item_seed",
    "pattern_classes",
    "MANIFEST_PATH", "MANIFEST_SCHEMA", "build_manifest", "check_manifest",
    "content_hash", "load_manifest", "render_manifest", "render_stats_table",
    "save_manifest",
]
