"""Binary strategy genomes and their decoding to behavioral parameters.

Searcher genomes are 10 bits (two 5-bit segments decoding to gamma1 in [1, 5]
and gamma2 in [0, 4]); builder genomes are 5 bits decoding to a rebate ratio
alpha in [0, 1]. Each 5-bit segment is read most-significant-bit first and
mapped linearly, low + (d / 31) * (high - low). A genome's *code* is its bits
read most-significant first as one integer; pools, the round and the decode
API hold codes, and bit strings appear only in output.
"""

from __future__ import annotations

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


def random_codes(width: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` random genome codes of ``width`` bits, from one ``rng.integers`` draw.

    Row k of the ``(size, width)`` bit draw is genome k, read most-significant
    first. Each bit takes one 32-bit draw and the generator keeps an unused
    half of a 64-bit draw for the next one, so this consumes the stream
    exactly as ``size`` calls of ``width`` bits would.
    """
    places = 1 << np.arange(width - 1, -1, -1)
    return rng.integers(0, 2, size=(size, width)) @ places


def _linear(d: int, low: float, high: float) -> float:
    """The segment integer ``d`` (0..31) mapped linearly onto [low, high]."""
    return low + (d / SEGMENT_MAX) * (high - low)


def segment_ints(bits: str) -> tuple[int, ...]:
    """Decoded integer (0..31) of each 5-bit segment of a bit string."""
    if len(bits) % SEGMENT_BITS != 0:
        raise CodecError(f"bit string length must be a multiple of 5, got {len(bits)}")
    return tuple(
        int(bits[k : k + SEGMENT_BITS], 2) for k in range(0, len(bits), SEGMENT_BITS)
    )


def _check_code(code: int, width: int) -> None:
    if not 0 <= code < 2**width:
        raise CodecError(f"a {width}-bit genome code must be in [0, {2**width}), got {code}")


def decode_searcher(code: int) -> SearcherParams:
    """The decoded parameters of a searcher genome code."""
    _check_code(code, SEARCHER_WIDTH)
    return SearcherParams(
        _linear(code >> SEGMENT_BITS, *GAMMA1_RANGE), _linear(code & SEGMENT_MAX, *GAMMA2_RANGE)
    )


# the rebate ratio of every builder genome, indexed by the genome read as an integer
BUILDER_ALPHAS = tuple(_linear(d, *ALPHA_RANGE) for d in range(2**BUILDER_WIDTH))


def decode_builder(code: int) -> BuilderParams:
    """The decoded rebate ratio of a builder genome code."""
    _check_code(code, BUILDER_WIDTH)
    return BuilderParams(BUILDER_ALPHAS[code])


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


def bid_ratios(searchers: Sequence[int], builders: Sequence[int]) -> np.ndarray:
    """The ``(searchers, builders)`` matrix of ``bid_ratio`` between genome codes, or
    one such matrix per row of 2-D ``searchers`` and ``builders`` (one row per replica).

    Codes index a table with one row per searcher genome. A row is filled on
    first use with the scalar ``bid_ratio`` (Python's ``**``), so every entry
    is exact.
    """
    rows = np.asarray(searchers, dtype=np.intp)
    cols = np.asarray(builders, dtype=np.intp)
    filled = _BID_FILLED[rows]
    if not filled.all():
        for code in set(rows[~filled].tolist()):
            params = decode_searcher(code)
            _BID_TABLE[code] = [bid_ratio(params, alpha) for alpha in BUILDER_ALPHAS]
            _BID_FILLED[code] = True
    return _BID_TABLE[rows[..., None], cols[..., None, :]]
