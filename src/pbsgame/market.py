"""The pairwise interaction graph and per-round scenario generation.

A scenario is one round's market state: one bundle per agent, held as its
private value drawn from an exponential distribution, plus a symmetric
two-point conflict graph where each unordered pair of bundles fully conflicts
(weight -1) with probability ``p_c`` and is independent (weight 0) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigError


class InteractionGraph:
    """Two-point pairwise interaction weights between bundles.

    Off the diagonal, -1 means the pair fully conflicts (once one executes,
    the other is worth nothing) and 0 means independent; the diagonal is zero.
    """

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ConfigError(f"weights must be a square matrix, got shape {weights.shape}")
        if np.any(np.diag(weights) != 0):
            raise ConfigError("interaction weights must be zero on the diagonal")
        if not np.all((weights == 0) | (weights == -1)):
            raise ConfigError("interaction weights must be -1 (conflict) or 0 (independent)")
        self._weights = weights
        self._weights.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def weight(self, i: int, j: int) -> float:
        return float(self._weights[i, j])

    @cached_property
    def conflict_masks(self) -> tuple[int, ...]:
        """Per bundle ``k``, the bundles it zeroes when it executes as an int
        bitmask (bit ``i`` set: bundle ``i``); column ``k`` of the weights,
        computed on first use."""
        return tuple(conflict_masks(self._weights.T < 0))

    def conflicts(self, k: int) -> frozenset[int]:
        """The bundles that bundle ``k`` zeroes when it executes."""
        mask = self.conflict_masks[k]
        return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)

    @classmethod
    def independent(cls, n: int) -> "InteractionGraph":
        return cls(np.zeros((n, n)))

    @classmethod
    def from_conflict_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "InteractionGraph":
        """Listed unordered pairs conflict (-1), the rest are 0."""
        i, j = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T
        if np.any(i == j):
            raise ConfigError("a bundle cannot conflict with itself")
        weights = np.zeros((n, n))
        weights[i, j] = weights[j, i] = -1.0
        return cls(weights)

    def conflict_pairs(self) -> list[tuple[int, int]]:
        i_idx, j_idx = np.nonzero(np.triu(self._weights, k=1) < 0)
        return [(int(i), int(j)) for i, j in zip(i_idx, j_idx)]


@dataclass(frozen=True)
class Scenario:
    """One round's bundle values (agent ``i`` owns ``values[i]``) and interaction graph."""

    values: tuple[float, ...]
    graph: InteractionGraph

    def __post_init__(self):
        if len(self.graph.weights) != len(self.values):
            raise ConfigError(
                f"graph over {len(self.graph.weights)} bundles for {len(self.values)} values"
            )
        for v in self.values:
            if not 0 <= v < math.inf:
                raise ConfigError(f"bundle value must be >= 0 and finite, got {v}")

    @property
    def n(self) -> int:
        return len(self.values)


@lru_cache(maxsize=8)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every unordered pair, in (0, 1), (0, 2), ..., (n-2, n-1) order."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def conflict_masks(conflicts: np.ndarray) -> list:
    """Row ``k`` of each boolean matrix in ``conflicts`` (shape ``(..., n, n)``) as an int
    bitmask, bit ``i`` set where entry ``(k, i)`` is; nested lists over the leading axes."""
    packed = np.packbits(conflicts, axis=-1, bitorder="little")
    # zero-padded to at least one whole 64-bit word, word w holding bits 64w..64w+63
    padded = np.zeros(packed.shape[:-1] + (max(8, -(-packed.shape[-1] // 8) * 8),), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    words = padded.view("<u8").astype(object)
    masks = words[..., 0]
    for w in range(1, words.shape[-1]):
        masks = masks | words[..., w] << 64 * w
    return masks.tolist()


def draw_round(
    n: int, p_c: float, value_rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One round's draws: ``n`` i.i.d. Exponential values with rate ``value_rate``
    (mean 1/rate), then whether each unordered pair conflicts, with probability
    ``p_c``, in (0, 1), (0, 2), ..., (n-2, n-1) order. Returns both arrays."""
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if not 0 <= p_c <= 1:
        raise ConfigError(f"conflict probability must be in [0, 1], got {p_c}")
    if value_rate <= 0:
        raise ConfigError(f"value rate must be positive, got {value_rate}")
    values = rng.exponential(scale=1.0 / value_rate, size=n)
    return values, rng.random(pair_indices(n)[0].size) < p_c


def draw_scenario(n: int, p_c: float, value_rate: float, rng: np.random.Generator) -> Scenario:
    """Draw one round's private values and conflict graph (``draw_round``)."""
    values, conflict = draw_round(n, p_c, value_rate, rng)
    rows, cols = pair_indices(n)
    weights = np.zeros((n, n))
    weights[rows[conflict], cols[conflict]] = weights[cols[conflict], rows[conflict]] = -1.0
    return Scenario(values=tuple(values.tolist()), graph=InteractionGraph(weights))
