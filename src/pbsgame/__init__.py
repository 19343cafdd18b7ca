"""Agent-based role-selection game for PBS block production."""

__version__ = "0.1.0"

from .auction import AuctionOutcome, Settlement, run_auction, settle
from .builder import Block, BlockEntry, build_block
from .codec import BuilderParams, SearcherParams, bid_ratio, decode_builder, decode_searcher
from .egta import (
    AlphaRankResult,
    HeuristicPayoffTable,
    HptRow,
    alpharank,
    estimate_hpt,
    fixation_probability,
    intensity_sweep,
    path_fixation_probability,
)
from .errors import CodecError, ConfigError, NumericalError
from .evolution import GAConfig, evolve, select_strategy, update_fitness
from .market import InteractionGraph, Scenario, draw_scenario
from .simulation import MetricsSeries, RoundRecord, SimConfig, Simulation, cov
from .sweep import SweepRow, sweep_conflict

__all__ = [
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
