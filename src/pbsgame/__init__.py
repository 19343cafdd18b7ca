"""Agent-based role-selection game for PBS block production."""

__version__ = "0.1.0"

from .auction import AuctionOutcome, Settlement, run_auction, settle
from .builder import Block, BlockEntry, PendingBundle, build_block
from .codec import (
    BuilderParams,
    Chromosome,
    SearcherParams,
    bid_ratio,
    decode_builder,
    decode_searcher,
    decode_segment,
    encode_segment,
)
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
from .evolution import GAConfig, StrategyPool, evolve, select_strategy, update_fitness
from .market import Bundle, InteractionGraph, Scenario, draw_scenario
from .simulation import MetricsSeries, RoundRecord, SimConfig, Simulation, cov
from .sweep import SweepRow, sweep_conflict

__all__ = [
    "AlphaRankResult",
    "AuctionOutcome",
    "Block",
    "BlockEntry",
    "Bundle",
    "BuilderParams",
    "Chromosome",
    "CodecError",
    "ConfigError",
    "GAConfig",
    "HeuristicPayoffTable",
    "HptRow",
    "InteractionGraph",
    "MetricsSeries",
    "NumericalError",
    "PendingBundle",
    "RoundRecord",
    "Scenario",
    "SearcherParams",
    "Settlement",
    "SimConfig",
    "Simulation",
    "StrategyPool",
    "SweepRow",
    "alpharank",
    "bid_ratio",
    "build_block",
    "cov",
    "decode_builder",
    "decode_searcher",
    "decode_segment",
    "draw_scenario",
    "encode_segment",
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
