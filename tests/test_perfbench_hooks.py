"""The benchmark's tracing hooks still point at real program functions.

``perfbench/layers.py`` names the functions its per-layer spans wrap as
``(span, module, qualname, options)`` rows.  A refactor that renames or
moves one of them would crash a traced benchmark run, so every row must
resolve: a function at module level, or a method in the class
``__dict__`` (where ``perfbench/spans.py`` patches it — an inherited
method would not be found there).  The table file is loaded by path and
only read; no wrapper is installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_layers()
ROWS = LAYERS.WORKER_TABLES + LAYERS.SERVE


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r[0]}:{r[2]}")
def test_hook_resolves(row):
    _, module_name, qualname, _ = row
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        cls = getattr(module, cls_name)
        assert attr in cls.__dict__, f"{qualname} is not defined on {cls}"
        assert callable(getattr(cls, attr))
    else:
        assert callable(getattr(module, qualname)), qualname


def test_every_table_is_covered():
    assert {row[0].split(".")[0] for row in ROWS} == {
        "table1", "dse", "sim", "serve"}
