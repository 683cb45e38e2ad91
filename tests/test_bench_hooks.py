"""The attributes the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` replaces module attributes by name; a rename or a
deletion in the package would only show as a crash of a traced benchmark
run.  The tracer module is imported here, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from belldistill.states import BellDiagonalState

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_names():
    tracer = load_tracer()
    names = [(module, attr) for _prefix, module, attr in tracer.SPANNED]
    names += [tuple(name.split(".")) for name in (tracer.COSET_SUM, tracer.FROM_PAIRS)]
    return names


# The tracer names its `states.from_pairs` layer after the classmethod it
# wraps; every other name is a module attribute.
CLASS_OWNERS = {("states", "from_pairs"): BellDiagonalState}


@pytest.mark.parametrize("module, attr", hooked_names())
def test_traced_attribute_resolves(module, attr):
    owner = CLASS_OWNERS.get((module, attr)) or importlib.import_module(
        f"belldistill.{module}")
    assert callable(getattr(owner, attr)) and attr in owner.__dict__


def test_from_pairs_stays_a_classmethod():
    assert isinstance(BellDiagonalState.__dict__["from_pairs"], classmethod)
