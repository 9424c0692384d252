"""``python -m repro.corpus`` — generate / verify the pattern corpus.

.. code-block:: bash

    python -m repro.corpus                         # stats table to stdout
    python -m repro.corpus --out MANIFEST.json     # write the manifest
    python -m repro.corpus --check MANIFEST.json   # regenerate + compare
    python -m repro.corpus --stats stats.txt       # write the stats table
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .manifest import (MANIFEST_PATH, build_manifest, check_manifest,
                       render_stats_table, save_manifest)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="Deterministic DLMC-style sparse weight-pattern corpus "
                    "with a content-hash manifest.")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="regenerate the corpus and write the manifest "
                             f"here (committed copy: {MANIFEST_PATH})")
    parser.add_argument("--check", default=None, metavar="PATH",
                        help="regenerate and verify byte-identity against "
                             "this committed manifest (exit 2 on drift)")
    parser.add_argument("--stats", default=None, metavar="PATH",
                        help="write the per-item structure table here "
                             "instead of stdout")
    args = parser.parse_args(argv)

    if args.check is not None:
        problems = check_manifest(args.check)
        if problems:
            print(f"corpus drift against {args.check}:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 2
        print(f"corpus matches {args.check} byte-for-byte")
        return 0

    manifest = build_manifest()
    if args.out is not None:
        save_manifest(manifest, args.out)
        print(f"wrote {len(manifest['items'])} item hashes to {args.out}")
    table = render_stats_table(manifest)
    if args.stats is not None:
        path = pathlib.Path(args.stats)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(table + "\n")
        print(f"wrote corpus stats to {args.stats}")
    elif args.out is None:
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
