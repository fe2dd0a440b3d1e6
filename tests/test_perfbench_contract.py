"""The benchmark tracer's view of the package must stay valid.

perfbench/tracing.py wraps layer entry points by (module, attribute) name
and calls each counter with the wrapped function's arguments.  A refactor
that renames a traced function or changes its positional parameters
should fail here, not only in a traced benchmark run.  The tracer file is
loaded read-only by path; nothing is installed.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracing().PATCHES


@pytest.mark.parametrize(
    "module, attr, span, counter",
    PATCHES,
    ids=[f"{m.__name__}.{a}" for m, a, _, _ in PATCHES],
)
def test_traced_name_resolves_with_its_counter_signature(module, attr, span, counter):
    fn = getattr(module, attr, None)
    assert callable(fn), f"{module.__name__}.{attr} is gone"
    if counter is None:
        return
    positional = [
        p
        for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    # the tracer calls counter(counts, result, *args) with the call's arguments
    inspect.signature(counter).bind(None, None, *positional)
