"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracing.py`` names package functions by module and attribute
path.  A rename or a deletion of one of them would otherwise show only in a
traced benchmark run; here it fails the suite.  The tracer is loaded from its
file and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("modname, path", [t[1:3] for t in TRACED], ids=[t[0] for t in TRACED])
def test_traced_name_resolves_to_a_function_of_its_module(modname, path):
    target = importlib.import_module(modname)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
    assert target.__module__ == modname
