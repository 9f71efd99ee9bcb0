import gc
import tracemalloc
from collections import deque
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    profile,
    sts13_s1,
    sts13_s2,
    subsets_of_size,
    whole_design,
)
from blockfriends.blocks import as_mask, labels_from_mask, level_chunks, level_masks
from blockfriends.classify import classify_level
from blockfriends.profiles import CHUNK_CELLS
from oracle_util import BruteBlockError, brute_blocks, brute_detect, brute_labels, labels


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


def test_full_design_params_match_detection_through_k_equals_v():
    for v in range(1, 11):
        for k in range(1, v + 1):
            d = full_design(v, k)
            assert d.params == detect_design(d.blocks, v)[0]


def test_full_design_blocks_lexicographic():
    d = full_design(5, 3)
    assert d.block_labels() == tuple(combinations(range(1, 6), 3))


def test_subsets_of_size_matches_combinations():
    for v in range(10):
        for n in range(v + 3):
            want = [sum(1 << i for i in idx) for idx in combinations(range(v), n)]
            assert list(subsets_of_size(v, n)) == want


def test_level_chunks_match_combinations():
    """The pieces of level_chunks, joined, are the level in lexicographic
    order, equal to level_masks, and none exceeds the limit; on 64 points
    too, where tables are shifted into bit 63."""
    cases = [(v, range(v + 2), (1, 2, 7, 64, 1 << 40)) for v in range(15)]
    cases.append((64, (0, 1, 2, 3, 62, 63, 64), (1, 5, 1000)))
    for v, ns, limits in cases:
        for n in ns:
            want = [sum(1 << i for i in idx) for idx in combinations(range(v), n)]
            assert level_masks(v, n).tolist() == want
            for limit in limits:
                pieces = list(level_chunks(v, n, limit))
                assert all(0 < p.size <= limit for p in pieces)
                assert [m for p in pieces for m in p.tolist()] == want


def test_level_chunks_state_is_bounded():
    """The first piece of a 3e8-subset level costs no more than the piece:
    the prefix split is walked one prefix per depth, not tabled up front."""
    tracemalloc.start()
    try:
        first = next(level_chunks(31, 15, 8456))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < first.size <= 8456
    assert first[0] == (1 << 15) - 1
    assert peak < 8 << 20


def test_level_chunks_release_their_tables():
    """An exhausted level_chunks leaves none of its tables behind, even
    with the cyclic collector off: no reference cycle holds them."""
    gc.disable()
    tracemalloc.start()
    try:
        deque(level_chunks(21, 10, 12483), maxlen=0)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 64 << 10


def test_level_chunks_join_small_tables():
    """Neighbouring tables are joined while they fit, so a level comes in
    at most twice the fewest pieces of the limit."""
    for v, n in ((57, 4), (57, 5), (64, 4)):
        limit = CHUNK_CELLS // v
        pieces = sum(1 for _ in level_chunks(v, n, limit))
        assert pieces <= 2 * -(-comb(v, n) // limit)


def test_numpy_integers_read_as_python_ints():
    """Masks and labels given as numpy integers build what Python ints
    build, stored as uint64, and fail with the same text."""
    masks = level_masks(7, 3)
    assert np.array_equal(family(7, masks).blocks, family(7, masks.tolist()).blocks)
    assert family(7, masks).blocks.dtype == np.uint64
    assert np.array_equal(design(7, np.array(fano().blocks, dtype=np.uint64)).blocks, fano().blocks)
    assert profile(fano(), np.uint64(7)) == profile(fano(), 7)
    wide = family(64, [np.array([1, 64]), np.array([2, 63])])
    assert np.array_equal(wide.blocks, family(64, [(1, 64), (2, 63)]).blocks)
    assert labels_from_mask(np.uint64(5)) == labels_from_mask(5) == (1, 3)
    for blocks, v in (([(1, 2), (3, 4), (1, 3), (2, 4)], 4), ([(1, 2), (1, 3)], 4),
                      ([(1, 2, 3), (1, 2)], 7), (fano().block_labels(), 7)):
        masks = [as_mask(b) for b in blocks]
        assert detect_design(np.array(masks, dtype=np.uint64), v) == detect_design(masks, v)
    assert _outcome(as_mask, np.uint64(1 << 7), 7) == _outcome(as_mask, 1 << 7, 7)
    assert _outcome(design, 7, [1, np.uint64(1 << 7)]) == (
        "ValueError", "mask 0x80 not within ground set of size 7"
    )


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


def test_labels_from_mask_rejects_negative_masks():
    """A negative int has no finite set of bits; it raises, not loops."""
    with pytest.raises(ValueError, match="negative mask -1"):
        labels_from_mask(-1)


def test_blocks_are_read_only_and_never_alias_the_input():
    """Blocks and class members are read-only uint64 arrays; a caller's
    writable array is copied, stays writable, and later edits to it leave
    the design alone.  A read-only array is taken as it is."""
    with pytest.raises(ValueError, match="read-only"):
        fano().blocks[0] = 0
    cls = classify_level(fano(), 3)[0]
    with pytest.raises(ValueError, match="read-only"):
        cls.members[0] = 0
    assert cls.to_family().blocks is cls.members
    for build in (design, family):
        masks = np.array(fano().blocks)
        d = build(7, masks)
        assert masks.flags.writeable and not np.shares_memory(masks, d.blocks)
        masks[0] = 0b1111
        assert d == fano() and d.blocks[0] == fano().blocks[0]


def test_equality_ignores_order_and_name():
    a = design(7, [(2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
                   (2, 6, 7), (1, 3, 7), (1, 2, 4)], name="x")
    b = design(7, [(1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5),
                   (2, 6, 7), (3, 4, 6), (4, 5, 7)], name="y")
    assert a == b and hash(a) == hash(b)
    assert a != full_design(7, 3)


def test_design_block_size_witness():
    with pytest.raises(DesignError) as exc:
        design(7, [(1, 2, 3), (1, 2)])
    assert str(exc.value) == (
        "not a block design: block {1,2} has 2 elements, block {1,2,3} has 3"
    )


def _outcome(fn, *args):
    """("ok", result), ("TypeError",) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except TypeError:
        return ("TypeError",)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _check_block_list(v, blocks):
    """design, family and detect_design agree with the in-order oracle:
    the same first error, or the oracle's masks with the oracle's verdict."""
    try:
        masks = brute_blocks(blocks, v)
    except TypeError:
        expected = ("TypeError",)
    except BruteBlockError as exc:
        expected = ("DesignError", str(exc))
    except ValueError as exc:
        expected = ("ValueError", str(exc))
    else:
        expected = None
    if expected is not None:
        assert _outcome(design, v, blocks) == expected
        assert _outcome(family, v, blocks) == expected
        assert _outcome(detect_design, blocks, v) == expected
        return
    rows = [brute_labels(v, m) for m in masks]
    params = brute_detect(rows, v)
    assert detect_design(blocks, v)[0] == params
    kind, fam = _outcome(family, v, blocks)
    if len({len(r) for r in rows}) == 1:
        assert kind == "ok" and tuple(fam.blocks.tolist()) == masks and fam.params == params
    else:
        assert kind == "DesignError" and fam.startswith("block sizes differ")
    kind, d = _outcome(design, v, blocks)
    if params is not None or masks == (0,):
        assert kind == "ok" and tuple(d.blocks.tolist()) == masks and d.params == params
    else:
        assert kind == "DesignError" and d.startswith("not a block design: ")


@st.composite
def block_lists(draw):
    """A ground-set size and a list of blocks: int masks (in range, negative,
    of 64 bits or more, above v), label tuples (label 0, above v, repeated
    labels), wrongly typed blocks, and copies of earlier blocks, given as
    they were or as labels."""
    v = draw(st.sampled_from([1, 2, 3, 5, 7, 13, 64]))
    clean = st.one_of(
        st.integers(0, (1 << v) - 1),
        st.sets(st.integers(1, v), max_size=min(v, 6)).map(lambda s: tuple(sorted(s))),
    )
    bad = st.one_of(
        st.integers(-(1 << 65), -1),
        st.integers(1 << 64, 1 << 66),
        st.integers(1 << v, 1 << (v + 2)),
        st.lists(st.integers(0, v + 3), max_size=min(v, 6) + 1).map(tuple),
        st.sampled_from([None, 1.5, "12", (1, 2.5)]),
    )
    blocks = draw(st.lists(clean if draw(st.booleans()) else st.one_of(clean, bad), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if blocks:
            i = draw(st.integers(0, len(blocks) - 1))
            copy = blocks[i]
            if isinstance(copy, int) and 0 <= copy < 1 << v and draw(st.booleans()):
                copy = brute_labels(v, copy)
            blocks.insert(draw(st.integers(i + 1, len(blocks))), copy)
    return v, blocks


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(block_lists())
def test_block_check_matches_in_order_oracle(case):
    _check_block_list(*case)


@pytest.mark.parametrize("v, blocks", [
    (3, [1, 2, 4]),  # distinct masks within 1..v are returned as given
    (1, [0]),
    (64, [(1 << 64) - 1, 1]),
    (7, [(1, 2, 3), 6, (4, 5, 6)]),
    (7, []),
    (0, [1]),
    (65, [1]),
    (3, [1, 2, 1]),
    (3, [1, -1]),
    (3, [1, 8]),
    (64, [1 << 64]),
    (3, [(1, 2), 3]),  # the same block as labels, then as a mask
    (3, [(0, 1)]),
    (3, [(1, 4)]),
    (3, [(2, 2)]),
    (3, [(1, 2), (1, 2), None]),  # the duplicate comes first
    (3, [None, (1, 2), (1, 2)]),
    (3, [(1, 2), 1.5]),
])
def test_block_check_examples(v, blocks):
    _check_block_list(v, blocks)

