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
from time import perf_counter

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


def test_traced_run_with_draw_ahead_keeps_spans_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack: a traced call from a pool thread would
    # break its nesting, and one after uninstall would count as stray
    import caossim.channel
    import caossim.runner
    from caossim.scenario import scenario_from_dict

    tracing = _load_tracing()
    monkeypatch.setattr(caossim.channel, "_draw_workers", lambda: 2)
    scenario = scenario_from_dict(
        {
            "mode": "fdma-tdma",
            "grid": {"rows": 3, "cols": 5},
            "plan": {"T": 1.0, "p": 10, "m": 5, "P": 2},
            "target": {"kind": "uniform", "level": 0.5},
            "noise": {"awgn_sigma": 0.05, "pink_sigma": 0.01},
        }
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        with tracer.span(tracing.ROOT, "noisy"):
            caossim.runner.run(scenario)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    assert tracer.nesting_errors(wall) == []
    assert tracer.originals_restored()
    assert tracer.stray_calls == 0
    # 15 pixels, 2 per slot: a block of 7 full slots, then one of the short slot
    assert tracer.counts["channel.quantize.calls"] == 2
