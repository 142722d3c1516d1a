"""The benchmark tracer's names resolve in the library.

``perfbench/spans.py`` wraps repkit functions by module and attribute name,
so a renamed or deleted function would crash the traced benchmark runs.
This test reads that list (importing the module changes nothing) and fails
first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("span, module, attribute", spans.FUNCTIONS)
def test_traced_function_resolves(span, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), (span, module, attribute)


@pytest.mark.parametrize("attribute", spans.LINALG)
def test_traced_linalg_entry_point_resolves(attribute):
    assert callable(getattr(np.linalg, attribute, None))
