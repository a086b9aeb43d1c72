"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` resolves the names in ``TRACED`` at run time, so a
refactor that renames or moves one of them would otherwise surface only
when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    assert tracer.TRACED
    for name in tracer.TRACED:
        module_name, _, qualname = name.partition(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{name}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name} is not callable"
    assert set(tracer.ATTRIBUTES) <= set(tracer.TRACED)


def test_traced_attributes_recorded(tmp_path):
    """Every attribute span records its attributes on a tiny sweep and probe.

    The attribute functions read arguments and ``FitResult`` fields by name,
    so renaming one of those fails here instead of in the benchmark.
    """
    import hmm_frontier.cli as cli

    tracer = _load_tracer()
    commands = (
        ["rate-sweep", "--n-grid", "500", "--replicas", "1", "--epsilon", "0.3",
         "--zeta", "0.3", "--out", str(tmp_path / "sweep.csv")],
        ["threshold-probe", "--n", "300", "--c", "0", "--replicas", "4",
         "--out", str(tmp_path / "probe.json")],
    )
    with tracer.Tracer(tracer.TRACED) as traced:
        for argv in commands:
            assert cli.cli_main(argv) == 0
    summary = traced.summary()
    for name in tracer.ATTRIBUTES:
        assert name in summary, f"{name} was not called"
        assert len(summary[name]["attrs"]) == summary[name]["calls"] > 0, name
