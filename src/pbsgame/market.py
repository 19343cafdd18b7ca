"""Bundles, the pairwise interaction graph, and per-round scenario generation.

A scenario is one round's market state: one bundle per agent with a private
value drawn from an exponential distribution, plus a symmetric two-point
conflict graph where each unordered pair of bundles fully conflicts (weight -1)
with probability ``p_c`` and is independent (weight 0) otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Bundle:
    """A single agent's profit opportunity for one round."""

    owner: int
    base_value: float

    def __post_init__(self):
        if self.base_value < 0:
            raise ConfigError(f"bundle value must be >= 0, got {self.base_value}")


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
        # column k: the bundles whose value drops to 0 once bundle k executes
        self._conflicts = tuple(frozenset(np.flatnonzero(col).tolist()) for col in weights.T)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def weight(self, i: int, j: int) -> float:
        return float(self._weights[i, j])

    def conflicts(self, k: int) -> frozenset[int]:
        """The bundles that bundle ``k`` zeroes when it executes."""
        return self._conflicts[k]

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
    """One round's bundles and interaction graph."""

    bundles: tuple[Bundle, ...]
    graph: InteractionGraph
    p_c: float
    seed: int | None = None

    @property
    def n(self) -> int:
        return len(self.bundles)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "n": self.n,
            "p_c": self.p_c,
            "values": [b.base_value for b in self.bundles],
            "conflict_pairs": [list(p) for p in self.graph.conflict_pairs()],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        payload = json.loads(text)
        values: Sequence[float] = payload["values"]
        n = int(payload["n"])
        if len(values) != n:
            raise ConfigError(f"scenario has {len(values)} values for n={n}")
        bundles = tuple(Bundle(i, float(v)) for i, v in enumerate(values))
        graph = InteractionGraph.from_conflict_pairs(n, payload["conflict_pairs"])
        return cls(bundles=bundles, graph=graph, p_c=float(payload["p_c"]), seed=payload["seed"])


def draw_scenario(
    n: int,
    p_c: float,
    value_rate: float,
    rng: np.random.Generator | int,
) -> Scenario:
    """Draw one round's private values and conflict graph.

    Values are i.i.d. Exponential with rate ``value_rate`` (mean 1/rate). Each
    unordered pair conflicts with probability ``p_c``. Passing an int seeds a
    fresh generator and records the seed on the scenario.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if not 0 <= p_c <= 1:
        raise ConfigError(f"conflict probability must be in [0, 1], got {p_c}")
    if value_rate <= 0:
        raise ConfigError(f"value rate must be positive, got {value_rate}")

    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)

    values = rng.exponential(scale=1.0 / value_rate, size=n)
    bundles = tuple(Bundle(i, float(v)) for i, v in enumerate(values))

    # one draw per unordered pair, in (0, 1), (0, 2), ..., (n-2, n-1) order
    rows, cols = np.triu_indices(n, k=1)
    conflict = rng.random(rows.size) < p_c
    weights = np.zeros((n, n))
    weights[rows[conflict], cols[conflict]] = weights[cols[conflict], rows[conflict]] = -1.0
    graph = InteractionGraph(weights)
    return Scenario(bundles=bundles, graph=graph, p_c=p_c, seed=seed)
