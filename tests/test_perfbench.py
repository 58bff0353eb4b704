"""The benchmark's span wrappers still find what they wrap, the names the
benchmark and verification tools import from the package still exist, their
config tables still build, and the round digest is deterministic.

``perfbench/tracer.py`` replaces attributes of the package by name; a
renamed function would silently lose its span.  ``perfbench/run.py`` and
``tools/round_digest.py`` build ``SolverConfig``/``MaskConfig`` from their
tables; a removed field would only show when they run.  These tests only
read ``perfbench/`` and ``tools/``.
"""

import ast
import importlib.util
import re
from pathlib import Path

from maskdispatch import MaskConfig, SolverConfig, lp, protocol
from maskdispatch.protocol import run_market_round

ROOT = Path(__file__).resolve().parents[1]



def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


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


def _table(path, name):
    """The expression assigned to `name` in the script at `path`, parsed
    without running the script."""
    tree = ast.parse(path.read_text())
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def test_tool_imports_exist_on_the_package():
    # the scripts import from maskdispatch inside functions, so a name
    # dropped from the package would only fail when they run
    import maskdispatch
    scripts = [ROOT / "perfbench" / "run.py", ROOT / "tools" / "round_digest.py",
               ROOT / "tools" / "deviation_sweep.py"]
    names = {alias.name for path in scripts
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "maskdispatch"
             for alias in node.names}
    assert {"run_market_round", "protocol"} <= names
    assert [n for n in sorted(names) if not hasattr(maskdispatch, n)] == []


def test_tool_config_tables_build():
    workloads = ast.literal_eval(_table(ROOT / "perfbench" / "run.py", "WORKLOADS"))
    settings = [(w["solver"], w["mask"]) for w in workloads.values()]
    # name -> (case, solver settings, mask settings, mask seeds)
    for case in _table(ROOT / "tools" / "round_digest.py", "CASES").values:
        settings.append(tuple(ast.literal_eval(e) for e in case.elts[1:3]))
    assert len(settings) > len(workloads) > 0
    for solver, mask in settings:
        SolverConfig(**solver)
        MaskConfig(**mask)


def test_round_digest_is_deterministic():
    # the digests are how two source trees show bit-identical rounds, the
    # outcome one whatever their wire format, the clear one in clear mode
    round_digest = _load("round_digest", ROOT / "tools" / "round_digest.py")
    first = round_digest.digest("threebus-auto", run_market_round, [])
    assert first == round_digest.digest("threebus-auto", run_market_round, [])
    assert len(first) == 3 and len(set(first)) == 3
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in first)
