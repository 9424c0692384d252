"""Content-hash manifest: the corpus' byte-for-byte reproducibility pin.

The manifest records one SHA-256 per corpus item (over dtype, shape and
raw bytes) plus per-item structure statistics.  CI's ``corpus-check``
job regenerates the corpus from the pinned seed and ``cmp``s the result
against the committed copy — any drift in numpy, the generators or the
seed derivation fails the build instead of silently invalidating the
per-pattern benchmark baselines.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional

import numpy as np

from ..core.effects import reentrant
from ..harness.reporting import format_table
from .generators import (CORPUS_SEED, CorpusItem, corpus_items, generate)

#: Schema tag of the manifest document.
MANIFEST_SCHEMA = "repro.corpus/manifest/1"

#: Repo-relative home of the committed manifest.
MANIFEST_PATH = "benchmarks/corpus/CORPUS_MANIFEST.json"


def content_hash(matrix: np.ndarray) -> str:
    """SHA-256 over dtype, shape and C-order bytes (layout-independent)."""
    h = hashlib.sha256()
    h.update(f"{matrix.dtype.str}|{matrix.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.hexdigest()


@reentrant(reason="manifest entries must be a function of the item alone "
                  "so every regeneration is byte-identical")
def _describe_item(item: CorpusItem) -> Dict[str, object]:
    """One item's manifest entry: structure statistics plus content hash."""
    matrix = generate(item)
    nnz = int(np.count_nonzero(matrix))
    counts = np.count_nonzero(matrix, axis=0)
    return {
        "name": item.name,
        "pattern_class": item.pattern_class,
        "shape": list(item.shape),
        "nnz": nnz,
        "density": round(nnz / matrix.size, 6),
        "col_nnz_min": int(counts.min()),
        "col_nnz_max": int(counts.max()),
        "sha256": content_hash(matrix),
    }


def build_manifest() -> Dict[str, object]:
    """Generate the full corpus and return its manifest document."""
    return {
        "schema": MANIFEST_SCHEMA,
        "seed": CORPUS_SEED,
        "items": [_describe_item(item) for item in corpus_items()],
    }


def render_manifest(manifest: Dict[str, object]) -> str:
    """The canonical byte representation the CI job ``cmp``s."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def save_manifest(manifest: Dict[str, object], path: str) -> None:
    """Write the canonical rendering to ``path`` (creating parents)."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_manifest(manifest))


def load_manifest(path: str) -> Dict[str, object]:
    """Load a committed manifest document."""
    with open(path) as f:
        return json.load(f)


def check_manifest(path: str) -> List[str]:
    """Regenerate the corpus and diff against the committed manifest.

    Returns a list of human-readable mismatch lines (empty == clean).
    The comparison is on the canonical rendering, so schema drift,
    reordering, stat changes and hash changes all count.
    """
    committed = render_manifest(load_manifest(path))
    fresh = build_manifest()
    if committed == render_manifest(fresh):
        return []
    by_name = {e["name"]: e for e in load_manifest(path).get("items", [])}
    problems: List[str] = []
    for entry in fresh["items"]:
        old = by_name.pop(entry["name"], None)
        if old is None:
            problems.append(f"{entry['name']}: missing from manifest")
        elif old != entry:
            changed = sorted(k for k in entry if old.get(k) != entry[k])
            problems.append(
                f"{entry['name']}: drifted ({', '.join(changed)})")
    for name in sorted(by_name):
        problems.append(f"{name}: in manifest but not in corpus")
    if not problems:
        problems.append("manifest header drifted (schema or seed)")
    return problems


def render_stats_table(manifest: Optional[Dict[str, object]] = None) -> str:
    """Fixed-width per-item structure table (the CI stats artifact)."""
    manifest = manifest if manifest is not None else build_manifest()
    rows = []
    for entry in manifest["items"]:
        rows.append([
            entry["name"], entry["pattern_class"],
            f"{entry['shape'][0]}x{entry['shape'][1]}",
            entry["nnz"], entry["density"],
            f"{entry['col_nnz_min']}..{entry['col_nnz_max']}",
            entry["sha256"][:12],
        ])
    return format_table(
        ["Item", "Class", "Shape", "nnz", "Density", "Col nnz", "SHA-256"],
        rows, title=f"Sparse pattern corpus (seed {manifest['seed']})")
