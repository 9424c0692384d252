"""Deterministic sparse-pattern generators for the benchmark corpus.

Every generator is a pure function of an explicit seeded
``numpy.random.Generator`` plus the target shape; the per-item stream
(:func:`item_seed`) is derived from :data:`CORPUS_SEED` and a SHA-256
of the item *name* alone, so items can be generated in any order, in
any process, and come out bit-identical.

Values are always non-zero int8-range integers (``|w| in [1, 127]``),
so an item's nnz equals the number of structurally-kept positions and
densities are exact by construction (the magnitude classes keep an
exact top-``k`` by absolute value with stable index tie-break).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator, NamedTuple, Tuple

import numpy as np

from ..core.effects import reentrant
from ..sparsity.nm import NMPattern, compute_nm_mask

#: Root seed pinned in the committed manifest; bump only together with a
#: regenerated manifest + benchmark baseline (see docs/METHODOLOGY.md).
CORPUS_SEED = 20260808

#: (in_dim, out_dim) geometries: the paper's two PE configurations plus
#: two larger layers where cache behaviour starts to dominate.
SHAPES: Tuple[Tuple[int, int], ...] = (
    (128, 8), (256, 32), (512, 64), (1024, 128))

#: Fraction of blocks kept by the block-sparse classes.
BLOCK_DENSITY = 0.25

#: Density of the pathological uniform-random class.
RAND_DENSITY = 0.30


class CorpusItem(NamedTuple):
    """One corpus entry: a pattern class instantiated at one shape."""

    name: str            # e.g. "mag_25_256x32"
    pattern_class: str   # e.g. "mag_25"
    shape: Tuple[int, int]


def _dense_values(rng: np.random.Generator,
                  shape: Tuple[int, int]) -> np.ndarray:
    """A dense matrix of non-zero int8-range values (``|w| in [1,127]``)."""
    mags = rng.integers(1, 128, size=shape, dtype=np.int64)
    signs = rng.integers(0, 2, size=shape, dtype=np.int64) * 2 - 1
    return mags * signs


def _nm(rng: np.random.Generator, shape: Tuple[int, int],
        pattern: NMPattern) -> np.ndarray:
    """N:M structured: exactly ``n`` survivors per aligned group of ``m``
    down the input dimension (magnitude saliency, stable ties)."""
    dense = _dense_values(rng, shape)
    mask = compute_nm_mask(np.abs(dense), pattern, axis=0)
    return dense * mask.astype(np.int64)


def _magnitude(rng: np.random.Generator, shape: Tuple[int, int],
               density: float) -> np.ndarray:
    """Unstructured magnitude pruning keeping an exact global top-``k``."""
    dense = _dense_values(rng, shape)
    keep = int(round(density * dense.size))
    order = np.argsort(-np.abs(dense), axis=None, kind="stable")
    mask = np.zeros(dense.size, dtype=np.int64)
    mask[order[:keep]] = 1
    return dense * mask.reshape(shape)


def _block(rng: np.random.Generator, shape: Tuple[int, int],
           block: int) -> np.ndarray:
    """Structured block sparsity: keep an exact fraction of aligned
    ``block x block`` tiles (shapes here are all multiples of 8)."""
    dense = _dense_values(rng, shape)
    grid = (shape[0] // block, shape[1] // block)
    nblocks = grid[0] * grid[1]
    keep = int(round(BLOCK_DENSITY * nblocks))
    chosen = rng.permutation(nblocks)[:keep]
    block_mask = np.zeros(nblocks, dtype=np.int64)
    block_mask[chosen] = 1
    mask = np.kron(block_mask.reshape(grid),
                   np.ones((block, block), dtype=np.int64))
    return dense * mask


def _uniform_random(rng: np.random.Generator,
                    shape: Tuple[int, int]) -> np.ndarray:
    """Pathological scatter: an exact-count uniform-random support set."""
    dense = _dense_values(rng, shape)
    keep = int(round(RAND_DENSITY * dense.size))
    chosen = rng.permutation(dense.size)[:keep]
    mask = np.zeros(dense.size, dtype=np.int64)
    mask[chosen] = 1
    return dense * mask.reshape(shape)


def pattern_classes() -> Dict[str, Callable[
        [np.random.Generator, Tuple[int, int]], np.ndarray]]:
    """Ordered mapping of pattern-class name -> generator callable."""
    return {
        "nm_1_4": lambda rng, s: _nm(rng, s, NMPattern(1, 4)),
        "nm_2_4": lambda rng, s: _nm(rng, s, NMPattern(2, 4)),
        "nm_1_8": lambda rng, s: _nm(rng, s, NMPattern(1, 8)),
        "nm_2_16": lambda rng, s: _nm(rng, s, NMPattern(2, 16)),
        "mag_50": lambda rng, s: _magnitude(rng, s, 0.50),
        "mag_25": lambda rng, s: _magnitude(rng, s, 0.25),
        "mag_10": lambda rng, s: _magnitude(rng, s, 0.10),
        "block_4x4": lambda rng, s: _block(rng, s, 4),
        "block_8x8": lambda rng, s: _block(rng, s, 8),
        "rand_30": _uniform_random,
    }


def corpus_items() -> Tuple[CorpusItem, ...]:
    """The full corpus, in deterministic (class, shape) order."""
    items = []
    for cls in pattern_classes():
        for shape in SHAPES:
            items.append(CorpusItem(
                name=f"{cls}_{shape[0]}x{shape[1]}",
                pattern_class=cls, shape=shape))
    return tuple(items)


def item_seed(name: str) -> np.random.SeedSequence:
    """The item's seed: root seed + a stable hash of the name alone.

    Independent of enumeration order, so generating any subset of items,
    in any order, produces identical matrices.
    """
    digest = hashlib.sha256(name.encode("ascii")).digest()
    entropy = int.from_bytes(digest[:8], "big")
    return np.random.SeedSequence([CORPUS_SEED, entropy])


@reentrant(reason="corpus items must be a function of (seed, name) alone "
                  "so every regeneration stays byte-identical")
def generate(item: CorpusItem) -> np.ndarray:
    """Generate one corpus matrix (int64 storage, int8-range values)."""
    classes = pattern_classes()
    rng = np.random.default_rng(item_seed(item.name))
    return classes[item.pattern_class](rng, item.shape)


def generate_item(name: str) -> np.ndarray:
    """Generate a corpus matrix by item name (raises on unknown names)."""
    for item in corpus_items():
        if item.name == name:
            return generate(item)
    raise KeyError(f"unknown corpus item {name!r}")


def iter_matrices() -> Iterator[Tuple[CorpusItem, np.ndarray]]:
    """Yield ``(item, matrix)`` pairs in deterministic corpus order."""
    for item in corpus_items():
        yield item, generate(item)
