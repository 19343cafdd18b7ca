"""Agent-based role-selection game for PBS block production.

The exports resolve on first access (PEP 562 module ``__getattr__``): each
name imports its home module when it is first read, so ``import
pbsgame.simulation`` loads the simulation's own modules and no more, and a
single run never pays for the process pools of ``sweep`` and ``egta``.
``pbsgame.X`` and ``from pbsgame import *`` give the object ``X`` of its home
module, for every name in ``__all__``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "auction": ("AuctionOutcome", "Settlement", "run_auction", "settle"),
    "builder": ("Block", "BlockEntry", "build_block"),
    "codec": ("BuilderParams", "SearcherParams", "bid_ratio", "decode_builder", "decode_searcher"),
    "egta": (
        "AlphaRankResult", "HeuristicPayoffTable", "HptRow", "alpharank", "estimate_hpt",
        "fixation_probability", "intensity_sweep", "path_fixation_probability",
    ),
    "errors": ("CodecError", "ConfigError", "NumericalError"),
    "evolution": ("GAConfig", "evolve", "select_strategy", "update_fitness"),
    "market": ("InteractionGraph", "Scenario", "draw_scenario"),
    "simulation": ("MetricsSeries", "RoundRecord", "SimConfig", "Simulation", "cov"),
    "sweep": ("SweepRow", "sweep_conflict"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
