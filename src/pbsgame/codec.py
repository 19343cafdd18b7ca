"""Binary strategy genomes and their decoding to behavioral parameters.

Searcher genomes are 10 bits (two 5-bit segments decoding to gamma1 in [1, 5]
and gamma2 in [0, 4]); builder genomes are 5 bits decoding to a rebate ratio
alpha in [0, 1]. Each 5-bit segment is read most-significant-bit first and
mapped linearly, low + (d / 31) * (high - low).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CodecError

SEGMENT_BITS = 5
SEGMENT_MAX = 2**SEGMENT_BITS - 1  # 31
BUILDER_WIDTH = SEGMENT_BITS
SEARCHER_WIDTH = 2 * SEGMENT_BITS
GAMMA1_RANGE = (1.0, 5.0)
GAMMA2_RANGE = (0.0, 4.0)
ALPHA_RANGE = (0.0, 1.0)


class SearcherParams(NamedTuple):
    gamma1: float  # sensitivity of the bid ratio to the builder's rebate
    gamma2: float  # overall scale: higher gamma2, lower bids


class BuilderParams(NamedTuple):
    alpha: float  # fraction of surplus rebated to included searchers


@dataclass
class Chromosome:
    """Fixed-width bit string with a running fitness value."""

    bits: str
    fitness: float = 0.0

    def __post_init__(self):
        if len(self.bits) not in (BUILDER_WIDTH, SEARCHER_WIDTH):
            raise CodecError(f"chromosome width must be 5 or 10, got {len(self.bits)}")
        if any(c not in "01" for c in self.bits):
            raise CodecError(f"chromosome bits must be 0/1, got {self.bits!r}")

    @property
    def width(self) -> int:
        return len(self.bits)


def random_chromosome(width: int, rng: np.random.Generator) -> Chromosome:
    bits = "".join("1" if b else "0" for b in rng.integers(0, 2, size=width))
    return Chromosome(bits=bits)


def _linear(d: int, low: float, high: float) -> float:
    """The segment integer ``d`` (0..31) mapped linearly onto [low, high]."""
    return low + (d / SEGMENT_MAX) * (high - low)


def decode_segment(bits: str, low: float, high: float) -> float:
    """Map one 5-bit segment linearly onto [low, high]."""
    if len(bits) != SEGMENT_BITS or any(c not in "01" for c in bits):
        raise CodecError(f"expected a 5-bit segment, got {bits!r}")
    return _linear(int(bits, 2), low, high)


def encode_segment(value: int) -> str:
    """Inverse of the segment integer: 5-bit, most-significant-bit first."""
    if not 0 <= value <= SEGMENT_MAX:
        raise CodecError(f"segment integer must be in [0, {SEGMENT_MAX}], got {value}")
    return format(value, f"0{SEGMENT_BITS}b")


@lru_cache(maxsize=4096)
def segment_ints(bits: str) -> tuple[int, ...]:
    """Decoded integer (0..31) of each 5-bit segment; the one cached parse of a genome."""
    if len(bits) % SEGMENT_BITS != 0:
        raise CodecError(f"bit string length must be a multiple of 5, got {len(bits)}")
    return tuple(
        int(bits[k : k + SEGMENT_BITS], 2) for k in range(0, len(bits), SEGMENT_BITS)
    )


def decode_searcher(chromosome: Chromosome) -> SearcherParams:
    if chromosome.width != SEARCHER_WIDTH:
        raise CodecError(f"searcher chromosome must have 10 bits, got {chromosome.width}")
    d1, d2 = segment_ints(chromosome.bits)
    return SearcherParams(_linear(d1, *GAMMA1_RANGE), _linear(d2, *GAMMA2_RANGE))


def decode_builder(chromosome: Chromosome) -> BuilderParams:
    if chromosome.width != BUILDER_WIDTH:
        raise CodecError(f"builder chromosome must have 5 bits, got {chromosome.width}")
    (d,) = segment_ints(chromosome.bits)
    return BuilderParams(_linear(d, *ALPHA_RANGE))


def bid_ratio(params: SearcherParams, alpha: float) -> float:
    """Modified sigmoid bid ratio, (1 / (1 + gamma1^-alpha))^gamma2.

    Lies in [0, 1] and is non-decreasing in the builder's rebate ratio for
    gamma1 >= 1.
    """
    base = 1.0 / (1.0 + params.gamma1 ** (-alpha))
    return base**params.gamma2


# row s: the bid ratio of searcher genome s towards each builder genome, a pure
# cache; a row is filled on first use (np.empty touches no page until then)
_BID_TABLE = np.empty((2**SEARCHER_WIDTH, 2**BUILDER_WIDTH))
_BID_FILLED = np.zeros(2**SEARCHER_WIDTH, dtype=bool)


def bid_ratios(searchers: Sequence[Chromosome], builders: Sequence[Chromosome]) -> np.ndarray:
    """The ``(searchers, builders)`` matrix of ``bid_ratio`` between decoded genomes.

    A genome's bits, read most-significant first, index a table with one row
    per searcher genome. A row is filled on first use with the scalar
    ``bid_ratio`` (Python's ``**``), so every entry is exact.
    """
    rows = np.array([int(c.bits, 2) for c in searchers], dtype=np.intp)
    cols = np.array([int(c.bits, 2) for c in builders], dtype=np.intp)
    for code in set(rows[~_BID_FILLED[rows]].tolist()):
        params = SearcherParams(
            _linear(code >> SEGMENT_BITS, *GAMMA1_RANGE), _linear(code & SEGMENT_MAX, *GAMMA2_RANGE)
        )
        _BID_TABLE[code] = [
            bid_ratio(params, _linear(d, *ALPHA_RANGE)) for d in range(2**BUILDER_WIDTH)
        ]
        _BID_FILLED[code] = True
    return _BID_TABLE[rows[:, None], cols]
