import numpy as np
import pytest

from pbsgame.builder import BlockEntry, build_block
from pbsgame.errors import ConfigError
from pbsgame.market import InteractionGraph, Scenario, conflict_masks, draw_scenario


def _after_first(value, graph):
    """Block of bundle 0 (value 2.0) then bundle 1 (``value``, bid fraction 0.5)."""
    offers = [BlockEntry(0, 2.0, 1.0 * 2.0), BlockEntry(1, value, 0.5 * value)]
    return [tuple(e) for e in build_block(0, offers, graph).entries]


def test_apply_interaction_full_conflict():
    # weight -1: once bundle 0 executes, bundle 1 is worth nothing and is left out
    graph = InteractionGraph.from_conflict_pairs(2, [(0, 1)])
    assert graph.weight(1, 0) == -1.0 and graph.conflicts(0) == {1}
    assert _after_first(0.1, graph) == [(0, 2.0, 2.0)]


def test_apply_interaction_independent():
    graph = InteractionGraph.independent(2)
    assert graph.weight(1, 0) == 0.0 and graph.conflicts(0) == frozenset()
    assert _after_first(0.1, graph) == [(0, 2.0, 2.0), (1, 0.1, 0.05)]


@pytest.mark.parametrize("value", [0.0, 0.05, 1.7])
def test_apply_interaction_identity_at_zero_weight(value):
    # an independent bundle keeps its value exactly; a zero-value one is never added
    expected = [(0, 2.0, 2.0)] + ([(1, value, 0.5 * value)] if value > 0 else [])
    assert _after_first(value, InteractionGraph.independent(2)) == expected


def test_draw_scenario_no_conflicts_at_zero():
    sc = draw_scenario(6, 0.0, 10.0, np.random.default_rng(1))
    assert np.all(sc.graph.weights == 0)


def test_draw_scenario_all_conflicts_at_one():
    sc = draw_scenario(6, 1.0, 10.0, np.random.default_rng(1))
    off_diag = sc.graph.weights[~np.eye(6, dtype=bool)]
    assert np.all(off_diag == -1)


def test_value_rate_ten_means_one_tenth():
    # 1e5 draws at rate 10 should average 0.1 within the stated band
    rng = np.random.default_rng(42)
    values = [v for _ in range(100) for v in draw_scenario(1000, 0.0, 10.0, rng).values]
    assert 0.095 <= np.mean(values) <= 0.105


def test_draw_scenario_symmetric_two_point():
    sc = draw_scenario(8, 0.5, 10.0, np.random.default_rng(3))
    w = sc.graph.weights
    assert np.array_equal(w, w.T)
    assert set(np.unique(w)) <= {-1.0, 0.0}


def test_draw_scenario_deterministic_given_seed():
    a = draw_scenario(7, 0.4, 10.0, np.random.default_rng(123))
    b = draw_scenario(7, 0.4, 10.0, np.random.default_rng(123))
    assert a.values == b.values
    assert np.array_equal(a.graph.weights, b.graph.weights)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1, "p_c": 0.5, "value_rate": 10.0},
        {"n": 5, "p_c": -0.1, "value_rate": 10.0},
        {"n": 5, "p_c": 1.1, "value_rate": 10.0},
        {"n": 5, "p_c": 0.5, "value_rate": 0.0},
        {"n": 5, "p_c": 0.5, "value_rate": -3.0},
    ],
)
def test_draw_scenario_rejects_bad_config(kwargs):
    with pytest.raises(ConfigError):
        draw_scenario(kwargs["n"], kwargs["p_c"], kwargs["value_rate"], np.random.default_rng(0))


def test_bundle_rejects_negative_value():
    with pytest.raises(ConfigError):
        Scenario((0.2, -0.1), InteractionGraph.independent(2))


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_scenario_rejects_non_finite_value(value):
    with pytest.raises(ConfigError, match="finite"):
        Scenario((0.2, value), InteractionGraph.independent(2))


@pytest.mark.parametrize("values", [(0.1, 0.2, 0.3), (0.1,)], ids=["more-values", "fewer-values"])
def test_scenario_rejects_graph_of_another_size(values):
    with pytest.raises(ConfigError, match="graph over 2 bundles"):
        Scenario(values, InteractionGraph.independent(2))


def test_graph_validation():
    with pytest.raises(ConfigError):
        InteractionGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ConfigError):
        InteractionGraph(np.array([[0.0, -2.0], [-2.0, 0.0]]))  # below -1
    with pytest.raises(ConfigError):
        InteractionGraph(np.array([[0.0, 0.5], [0.5, 0.0]]))  # altruistic: not two-point
    with pytest.raises(ConfigError):
        InteractionGraph(np.array([[0.0, -0.5], [-0.5, 0.0]]))  # partial conflict
    with pytest.raises(ConfigError):
        InteractionGraph.from_conflict_pairs(3, [(1, 1)])


def test_graph_conflict_pairs_round_trip():
    pairs = [(0, 2), (1, 3)]
    g = InteractionGraph.from_conflict_pairs(4, pairs)
    assert g.conflict_pairs() == pairs
    assert g.weight(2, 0) == -1.0
    assert g.weight(0, 1) == 0.0
    assert [g.conflicts(k) for k in range(4)] == [{2}, {3}, {0}, {1}]


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 7, 7), (2, 2, 64, 64), (65, 65), (2, 130, 130)])
def test_conflict_masks_set_bit_i_of_row_k_where_entry_k_i_is(shape):
    conflicts = np.random.default_rng(sum(shape)).random(shape) < 0.5
    expected = np.zeros(shape[:-1], dtype=object)
    for i in range(shape[-1]):
        expected = expected + (conflicts[..., i].astype(object) << i)
    assert conflict_masks(conflicts) == expected.tolist()
