"""The names the benchmark's layer tracer patches are bound in the package.

`bench/layertrace.py` wraps the functions in its `LAYER_FUNCTIONS` and
`SCIPY_BINDINGS` tables, `splu` in `bscontrol.fi` and two `FISolver`
methods.  A refactor that drops one of them would only show when a traced
benchmark run crashes; this test reads the tracer's tables (without
changing the file) and fails first.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_tables", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _layertrace()
SOURCE = LAYERTRACE.read_text()


@pytest.mark.parametrize("table", ["LAYER_FUNCTIONS", "SCIPY_BINDINGS"])
def test_traced_names_are_bound(table):
    missing = [f"{mod}.{name}" for mod, name, _ in getattr(TRACER, table)
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing, f"{table} names unbound names: {missing}"


def test_traced_fi_names_are_bound():
    from bscontrol import fi
    module_names = re.findall(r'patch\(fi, "(\w+)"', SOURCE)
    class_names = re.findall(r'patch\(cls, "(\w+)"', SOURCE)
    assert "splu" in module_names and class_names
    assert all(callable(getattr(fi, name, None)) for name in module_names)
    assert all(callable(getattr(fi.FISolver, name, None)) for name in class_names)
