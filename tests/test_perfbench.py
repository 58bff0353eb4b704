"""The benchmark's span wrappers still find what they wrap.

``perfbench/tracer.py`` replaces attributes of the package by name; a
renamed function would silently lose its span.  These tests only read
``perfbench/``.
"""

import importlib.util
from pathlib import Path

from maskdispatch import lp, protocol
from maskdispatch.protocol import run_market_round

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_span_target_exists():
    missing = [f"{path}.{attr}" for path, attr, _ in tracer.TARGETS
               if attr not in tracer._holder(path).__dict__]
    assert not missing


def test_traced_masked_round_has_one_solve_and_one_assembly(threebus):
    t = tracer.Tracer()
    try:
        t.install()
        with t.round(0, "masked"):
            run_market_round(threebus, 0, mode="masked")
    finally:
        t.uninstall()
    assert protocol.solve_lp is lp.solve_lp
    layers = [s.layer for s in t.spans]
    assert layers.count("lp.solve_s") == 1
    assert layers.count("masking.assemble_s") == 1
    ((root, _),) = t.rounds("masked")
    assert root.ok
