import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbsgame
from pbsgame.codec import (
    BUILDER_ALPHAS,
    Chromosome,
    SearcherParams,
    bid_ratio,
    bid_ratios,
    decode_builder,
    decode_searcher,
    decode_segment,
    encode_segment,
    random_codes,
    segment_ints,
)
from pbsgame.errors import CodecError


def test_decode_segment_worked_example():
    # "01001" is 9, mapped onto [0, 4]
    assert decode_segment("01001", 0, 4) == pytest.approx(36 / 31)


def test_decode_segment_endpoints():
    assert decode_segment("00000", 1, 5) == 1.0
    assert decode_segment("11111", 0, 1) == 1.0


def test_decode_segment_follows_linear_map():
    # "00101" is 5: 1 + (5/31)*4, recomputed by hand
    assert decode_segment("00101", 1, 5) == pytest.approx(51 / 31)


@pytest.mark.parametrize("bits", ["0101", "010101", "01a01"])
def test_decode_segment_rejects_bad_input(bits):
    with pytest.raises(CodecError):
        decode_segment(bits, 0, 1)


def test_decode_searcher_all_zero_and_all_one():
    assert decode_searcher(Chromosome("0000000000")) == (1.0, 0.0)
    assert decode_searcher(Chromosome("1111111111")) == (5.0, 4.0)


def test_decode_searcher_mixed_genome():
    gamma1, gamma2 = decode_searcher(Chromosome("0010101001"))
    assert gamma1 == pytest.approx(51 / 31)
    assert gamma2 == pytest.approx(36 / 31)


def test_decode_builder_values():
    assert decode_builder(Chromosome("00000")).alpha == 0.0
    assert decode_builder(Chromosome("11111")).alpha == 1.0
    assert decode_builder(Chromosome("10000")).alpha == pytest.approx(16 / 31)


def test_decode_width_mismatch():
    with pytest.raises(CodecError):
        decode_searcher(Chromosome("00000"))
    with pytest.raises(CodecError):
        decode_builder(Chromosome("0000000000"))


def test_chromosome_validation():
    with pytest.raises(CodecError):
        Chromosome("0000002")
    with pytest.raises(CodecError):
        Chromosome("02101")


def test_encode_decode_round_trip():
    for d in range(32):
        bits = encode_segment(d)
        assert int(bits, 2) == d
        assert len(bits) == 5
    with pytest.raises(CodecError):
        encode_segment(32)


def test_decode_equals_decode_segment_on_every_genome():
    # every genome the GA can produce, compared exactly with each segment decoded alone
    for d in range(32):
        bits = encode_segment(d)
        assert decode_builder(Chromosome(bits)).alpha == decode_segment(bits, 0.0, 1.0)
    for d1 in range(32):
        for d2 in range(32):
            s1, s2 = encode_segment(d1), encode_segment(d2)
            assert decode_searcher(Chromosome(s1 + s2)) == (
                decode_segment(s1, 1.0, 5.0),
                decode_segment(s2, 0.0, 4.0),
            )


def test_alpha_table_equals_decode_builder_on_every_genome():
    genomes = [format(d, "05b") for d in range(32)]
    assert list(BUILDER_ALPHAS) == [decode_builder(Chromosome(bits)).alpha for bits in genomes]


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
    searchers = [Chromosome(format(s, "010b")) for s in range(1024)]
    builders = [Chromosome(format(b, "05b")) for b in range(32)]
    gammas = [decode_searcher(c) for c in searchers]
    alphas = [decode_builder(c).alpha for c in builders]
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


def test_random_codes_read_each_draw_most_significant_first():
    # one rng.integers(0, 2, size=width) call per genome, its bits read as a string
    rng, bits_rng = np.random.default_rng(5), np.random.default_rng(5)
    for width in (5, 10):
        expected = [
            int("".join(map(str, bits_rng.integers(0, 2, size=width))), 2) for _ in range(20)
        ]
        assert random_codes(width, 20, rng).tolist() == expected
    assert rng.bit_generator.state == bits_rng.bit_generator.state
