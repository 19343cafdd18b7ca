import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import pbsgame

# the package's public names, in the order __all__ lists them
EXPORTS = [
    "AlphaRankResult",
    "AuctionOutcome",
    "Block",
    "BlockEntry",
    "BuilderParams",
    "CodecError",
    "ConfigError",
    "GAConfig",
    "HeuristicPayoffTable",
    "HptRow",
    "InteractionGraph",
    "MetricsSeries",
    "NumericalError",
    "RoundRecord",
    "Scenario",
    "SearcherParams",
    "Settlement",
    "SimConfig",
    "Simulation",
    "SweepRow",
    "alpharank",
    "bid_ratio",
    "build_block",
    "cov",
    "decode_builder",
    "decode_searcher",
    "draw_scenario",
    "estimate_hpt",
    "evolve",
    "fixation_probability",
    "intensity_sweep",
    "path_fixation_probability",
    "run_auction",
    "select_strategy",
    "settle",
    "sweep_conflict",
    "update_fitness",
]


def run_fresh(probe: str) -> str:
    """Standard output of ``probe`` run by a fresh interpreter."""
    src = str(Path(pbsgame.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_every_export_resolves():
    # a name deleted from its module but left in __all__ fails here
    assert pbsgame.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(pbsgame, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pbsgame.no_such_name  # noqa: B018
    star = "from pbsgame import *\nprint(sorted(n for n in dir() if not n.startswith('_')))"
    assert run_fresh(star) == str(sorted(EXPORTS))


@pytest.mark.parametrize(
    "module, unloaded",
    [
        ("pbsgame.simulation", ["concurrent.futures.process", "multiprocessing", "pbsgame.cli",
                                "pbsgame.egta", "pbsgame.sweep"]),
        ("pbsgame.analytic", ["pbsgame.simulation"]),
    ],
)
def test_import_loads_only_what_it_uses(module, unloaded):
    # a single simulation or verification report loads no process pool and no other layer
    probe = f"import sys, {module}\nprint(sorted(m for m in {unloaded!r} if m in sys.modules))"
    assert run_fresh(probe) == "[]"


def test_cli_import_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test-only reference
    probe = (
        "import sys, pbsgame.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(probe) == "[]"


def test_no_module_imports_another_modules_private_name():
    # a private name has one home: a second caller moves it there or makes it public
    borrowed = []
    for path in sorted(Path(pbsgame.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                borrowed += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert borrowed == []
