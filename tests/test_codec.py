import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbsgame
from pbsgame.codec import (
    BUILDER_ALPHAS,
    SearcherParams,
    bid_ratio,
    bid_ratios,
    decode_builder,
    decode_searcher,
    random_codes,
    segment_ints,
)
from pbsgame.errors import CodecError
from reference import alpha_of, gammas_of, random_genomes


def test_decode_searcher_all_zero_and_all_one():
    assert decode_searcher(int("0000000000", 2)) == (1.0, 0.0)
    assert decode_searcher(int("1111111111", 2)) == (5.0, 4.0)


def test_decode_searcher_mixed_genome():
    gamma1, gamma2 = decode_searcher(int("0010101001", 2))
    assert gamma1 == pytest.approx(51 / 31)
    assert gamma2 == pytest.approx(36 / 31)


def test_decode_builder_values():
    assert decode_builder(int("00000", 2)).alpha == 0.0
    assert decode_builder(int("11111", 2)).alpha == 1.0
    assert decode_builder(int("10000", 2)).alpha == pytest.approx(16 / 31)


def test_decode_width_mismatch():
    # a whole searcher genome is no builder genome, and no genome is wider than 10 bits
    with pytest.raises(CodecError):
        decode_searcher(int("11111111111", 2))
    with pytest.raises(CodecError):
        decode_builder(int("1111111111", 2))


@pytest.mark.parametrize(
    "decode, code",
    [(decode_searcher, -1), (decode_searcher, 1024), (decode_builder, -1), (decode_builder, 32),
     (decode_builder, 1024)],
    ids=["searcher--1", "searcher-1024", "builder--1", "builder-32", "builder-1024"],
)
def test_decode_rejects_codes_out_of_range(decode, code):
    # unchecked, a negative builder code would index BUILDER_ALPHAS from the end
    with pytest.raises(CodecError, match="genome code must be in"):
        decode(code)


def test_decode_equals_decode_segment_on_every_genome():
    # every genome the GA can produce, compared exactly with each segment decoded alone
    for d in range(32):
        assert decode_builder(d).alpha == alpha_of(format(d, "05b"))
    for code in range(1024):
        assert decode_searcher(code) == gammas_of(format(code, "010b"))


def test_alpha_table_equals_decode_builder_on_every_genome():
    genomes = [format(d, "05b") for d in range(32)]
    assert list(BUILDER_ALPHAS) == [decode_builder(int(bits, 2)).alpha for bits in genomes]


def test_segment_ints():
    assert segment_ints("0010101001") == (5, 9)
    assert segment_ints("11111") == (31,)


def test_bid_ratio_zero_exponent():
    for g1 in (1.0, 3.0, 5.0):
        for a in (0.0, 0.5, 1.0):
            assert bid_ratio(SearcherParams(g1, 0.0), a) == 1.0


def test_bid_ratio_flat_at_gamma1_one():
    for a in (0.0, 0.3, 1.0):
        assert bid_ratio(SearcherParams(1.0, 2.0), a) == pytest.approx(0.25)


def test_bid_ratio_hand_checked_point():
    assert bid_ratio(SearcherParams(5.0, 1.0), 1.0) == pytest.approx(5 / 6)


def test_bid_ratio_monotone_in_rebate_and_bounded():
    alphas = np.linspace(0, 1, 21)
    for g1 in np.linspace(1, 5, 9):
        for g2 in np.linspace(0, 4, 9):
            params = SearcherParams(g1, g2)
            values = [bid_ratio(params, a) for a in alphas]
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))
            assert all(0.5**g2 - 1e-12 <= v <= 1.0 + 1e-12 for v in values)


def test_bid_ratios_equal_scalar_bid_ratio_for_every_genome_pair():
    gammas = [decode_searcher(s) for s in range(1024)]
    alphas = [decode_builder(b).alpha for b in range(32)]
    table = bid_ratios(range(1024), range(32))
    assert table.shape == (1024, 32)
    mismatches = [
        (s, b)
        for s, params in enumerate(gammas)
        for b, alpha in enumerate(alphas)
        if not table[s, b] == bid_ratio(params, alpha)
    ]
    assert mismatches == []
    # any genome order, repeats included, picks the same entries
    picked = bid_ratios([7, 1023, 7], [31, 0, 5, 31])
    assert np.array_equal(picked, table[[7, 1023, 7]][:, [31, 0, 5, 31]])


def test_import_fills_no_bid_ratio_row():
    # the table is filled by rounds, never at import, so start-up pays nothing
    probe = "import pbsgame.simulation, pbsgame.codec as c; print(int(c._BID_FILLED.sum()))"
    src = str(Path(pbsgame.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0"


def test_random_codes_widths():
    rng = np.random.default_rng(0)
    for width in (5, 10):
        codes = random_codes(width, 20, rng)
        assert codes.shape == (20,)
        assert 0 <= codes.min() and codes.max() < 2**width


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 41),
    widths=st.sampled_from([(5, 10), (10, 5)]),
    half_buffered=st.booleans(),
)
def test_random_codes_read_each_draw_most_significant_first(seed, size, widths, half_buffered):
    # one (size, width) draw is the stream of one rng.integers(0, 2, size=width) call
    # per genome, its bits read as a string
    rng, bits_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_buffered:  # a 1-bit draw leaves the other half of its 64-bit draw buffered
        for generator in (rng, bits_rng):
            generator.integers(0, 2, size=1)
    for width in widths:
        expected = [int(bits, 2) for bits in random_genomes(width, size, bits_rng)]
        assert random_codes(width, size, rng).tolist() == expected
    assert rng.bit_generator.state == bits_rng.bit_generator.state
