from itertools import combinations
from math import comb

import pytest

from blockfriends import (
    DesignError,
    DesignParams,
    admissible,
    complement_design,
    design,
    detect_design,
    empty_design,
    family,
    fano,
    full_design,
    nine_point_design,
    sts13_s1,
    sts13_s2,
    subsets_of_size,
    whole_design,
)
from oracle_util import brute_detect, labels


def test_admissible_examples():
    assert admissible(DesignParams(7, 7, 3, 3, 1))
    assert admissible(DesignParams(9, 12, 8, 6, 5))
    assert not admissible(DesignParams(7, 7, 3, 3, 2))


def test_detect_fano():
    params, witness = detect_design([(2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
                                     (2, 6, 7), (1, 3, 7), (1, 2, 4)], 7)
    assert params == DesignParams(7, 7, 3, 3, 1)
    assert witness == ""


def test_detect_all_triples():
    params, _ = detect_design(list(combinations(range(1, 8), 3)), 7)
    assert params == DesignParams(7, 35, 15, 3, 5)


def test_detect_non_design_has_pair_witness():
    # constant replication (every element in 2 blocks) but uneven pair counts
    params, witness = detect_design([(1, 2), (3, 4), (1, 3), (2, 4)], 4)
    assert params is None
    assert "pair" in witness and "blocks" in witness


def test_detect_uneven_replication_witness():
    params, witness = detect_design([(1, 2), (1, 3)], 4)
    assert params is None
    assert "element" in witness


def test_detect_errors():
    with pytest.raises(DesignError, match="duplicate"):
        detect_design([(1, 2, 3), (1, 2, 3)], 7)
    with pytest.raises(ValueError, match="out of range"):
        detect_design([(1, 2, 9)], 7)


def test_full_design_examples():
    d5 = full_design(7, 5)
    assert d5.b == 21
    assert d5.params == DesignParams(7, 21, 15, 5, 10)
    d1 = full_design(7, 1)
    assert d1.params == DesignParams(7, 7, 1, 1, 0)
    assert full_design(7, 6).params == DesignParams(7, 7, 6, 6, 5)


def test_full_design_admissible_exhaustive():
    for v in range(4, 17):
        for k in range(2, v - 1):
            d = full_design(v, k)
            assert d.b == comb(v, k)
            assert admissible(d.params)


def test_full_design_matches_detection():
    for v in range(3, 11):
        for k in range(1, v):
            d = full_design(v, k)
            assert detect_design(d.blocks, v)[0] == d.params


def test_full_design_blocks_lexicographic():
    d = full_design(5, 3)
    assert d.block_labels() == tuple(combinations(range(1, 6), 3))


def test_subsets_of_size_matches_combinations():
    for v in range(10):
        for n in range(v + 3):
            want = [sum(1 << i for i in idx) for idx in combinations(range(v), n)]
            assert list(subsets_of_size(v, n)) == want


def test_degenerate_designs():
    e = empty_design(7)
    assert e.blocks == (0,) and e.k == 0 and e.is_degenerate and e.counts_as_design
    assert e.params is None
    w = whole_design(7)
    assert w.k == 7 and w.is_degenerate
    assert w.params == DesignParams(7, 1, 1, 7, 1)
    assert full_design(7, 0) == e
    assert full_design(7, 7) == w
    with pytest.raises(DesignError):
        full_design(7, 8)


def test_complement_examples():
    cof = complement_design(fano())
    assert cof.params == DesignParams(7, 7, 4, 4, 2)
    assert complement_design(cof) == fano()
    assert complement_design(full_design(7, 5)) == full_design(7, 2)
    with pytest.raises(DesignError):
        complement_design(whole_design(7))


def test_complement_param_map_on_catalog():
    for d in (fano(), nine_point_design(), sts13_s1(), sts13_s2(), full_design(8, 3)):
        v, b, r, k, lam = d.params
        c = complement_design(d)
        assert c.params == DesignParams(v, b, b - r, v - k, b - 2 * r + lam)
        assert detect_design(c.blocks, v)[0] == c.params


def test_params_match_oracle_on_catalog():
    for d in (fano(), nine_point_design(), sts13_s1(), sts13_s2()):
        assert tuple(d.params) == brute_detect(labels(d), d.v)


def test_design_constructor_rejects_non_design():
    with pytest.raises(DesignError, match="not a block design"):
        design(4, [(1, 2, 3), (1, 2, 4)])


def test_family_constructor_keeps_raw():
    raw = family(4, [(1, 2, 3), (1, 2, 4)])
    assert raw.params is None
    assert not raw.counts_as_design
    with pytest.raises(DesignError, match="sizes differ"):
        family(4, [(1, 2, 3), (1, 2)])


def test_equality_ignores_order_and_name():
    a = design(7, [(2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
                   (2, 6, 7), (1, 3, 7), (1, 2, 4)], name="x")
    b = design(7, [(1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5),
                   (2, 6, 7), (3, 4, 6), (4, 5, 7)], name="y")
    assert a == b and hash(a) == hash(b)
    assert a != full_design(7, 3)
