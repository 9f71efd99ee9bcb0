import random
import tracemalloc
from collections import Counter
from importlib import resources
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import blockfriends.blocks as blocks_mod
import blockfriends.classify as classify_mod
import blockfriends.friendship as friendship_mod
import blockfriends.profiles as profiles_mod
from blockfriends import (
    DesignError,
    DesignParams,
    analyze,
    analyze_level,
    are_friends,
    catalog,
    classify_all,
    classify_level,
    closed_form_classes,
    complement_design,
    empty_design,
    family,
    fano,
    fano_complement,
    fano_family_members,
    friends_matrix,
    full_design,
    labels_from_mask,
    load_field_tables,
    nine_point_design,
    non_fano_triples,
    prime_field,
    projective_plane,
    sts13_s1,
    sts13_s2,
    theorem_k3_classes,
    theorem_k4_classes,
    whole_design,
)
from blockfriends.blocks import level_chunks, level_masks
from blockfriends.designs import detect_params
from blockfriends.friendship import constant_profiles
from blockfriends.profiles import intersection_sizes, profile_pieces, profile_rows
from oracle_util import brute_classify, labels, pairwise_friends_matrix

PG24 = projective_plane(load_field_tables(
    resources.files("blockfriends.data").joinpath("gf4.tables").read_text()))


def sizes(classes):
    return {c.signature.display: c.size for c in classes}


S1_LEVELS = {
    3: {(10, 15, 0, 1): 26, (11, 12, 3, 0): 260},
    4: {(7, 15, 3, 1): 260, (8, 12, 6, 0): 455},
    5: {(5, 13, 7, 1): 780, (4, 16, 4, 2): 195, (6, 10, 10, 0): 312},
    6: {(2, 15, 6, 3): 208, (1, 18, 3, 4): 13, (4, 9, 12, 1): 468,
        (3, 12, 9, 2): 988, (5, 6, 15, 0): 39},
}
S2_LEVEL6 = {(2, 15, 6, 3): 228, (1, 18, 3, 4): 8, (4, 9, 12, 1): 488,
             (3, 12, 9, 2): 958, (5, 6, 15, 0): 34}


def test_sts13_levels():
    s1 = sts13_s1()
    for n, want in S1_LEVELS.items():
        assert sizes(classify_level(s1, n)) == want
    assert sizes(classify_level(sts13_s2(), 6)) == S2_LEVEL6
    for n in (3, 4, 5):
        assert sizes(classify_level(sts13_s2(), n)) == S1_LEVELS[n]


def test_level_zero_and_top():
    s1 = sts13_s1()
    lv0 = classify_level(s1, 0)
    assert len(lv0) == 1 and lv0[0].members == (0,) and lv0[0].signature.z[0] == 26
    lv13 = classify_level(s1, 13)
    assert len(lv13) == 1 and lv13[0].signature.z[3] == 26
    assert lv13[0].params == DesignParams(13, 1, 1, 13, 1)


def test_classes_match_oracle_at_level_4():
    s1 = sts13_s1()
    got = {c.signature.z: sorted(c.to_family().block_labels())
           for c in classify_level(s1, 4)}
    want = {sig: sorted(members)
            for sig, members in brute_classify(labels(s1), 3, 13, 4).items()}
    assert got == want


def test_members_lexicographic_and_disjoint():
    s1 = sts13_s1()
    for n in (2, 5):
        classes = classify_level(s1, n)
        seen = set()
        for c in classes:
            lab = c.to_family().block_labels()
            assert list(lab) == sorted(lab)
            assert not (set(c.members) & seen)
            seen.update(c.members)
        assert sum(c.size for c in classes) == comb(13, n)


def test_classify_all_fano():
    sub = classify_all(fano())
    assert sum(len(level) for level in sub.levels) == 10
    got = {(n, c.signature.display): c.size
           for n, level in enumerate(sub.levels) for c in level}
    assert got == {
        (0, (7,)): 1, (1, (4, 3)): 7, (2, (2, 4, 1)): 21,
        (3, (0, 6, 0, 1)): 7, (3, (1, 3, 3, 0)): 28,
        (4, (0, 3, 3, 1)): 28, (4, (1, 0, 6, 0)): 7,
        (5, (0, 1, 4, 2)): 21, (6, (0, 0, 3, 4)): 7, (7, (0, 0, 0, 7)): 1,
    }
    assert sum(c.size for level in sub.levels for c in level) == 2 ** 7


def test_classify_all_matches_fano_family():
    sub = classify_all(fano())
    class_sets = {frozenset(c.members) for level in sub.levels for c in level}
    member_sets = {frozenset(d.blocks) for d in fano_family_members()}
    assert class_sets == member_sets


def _class_facts(classes):
    return [(c.signature, c.size, c.params, c.witness,
             None if c.members is None else c.members.tolist()) for c in classes]


def test_complement_shortcut_cross_check():
    """Every level above v/2, derived by complement, equals a direct sweep."""
    for parent in (fano(), sts13_s1(), nine_point_design()):
        sub = classify_all(parent)
        for n in range(parent.v // 2 + 1, parent.v + 1):
            assert _class_facts(sub.levels[n]) == _class_facts(
                classify_level(parent, n))


def test_complement_shortcut_equals_direct():
    """classify_all agrees with a direct classify_level sweep at every level."""
    s1 = sts13_s1()
    sub = classify_all(s1)
    direct = [classify_level(s1, n) for n in range(s1.v + 1)]
    for a_level, b_level in zip(sub.levels, direct, strict=True):
        assert [(c.signature, c.size, c.params) for c in a_level] == [
            (c.signature, c.size, c.params) for c in b_level]
        for ca, cb in zip(a_level, b_level):
            assert sorted(ca.members) == sorted(cb.members)


def test_signature_reversal_between_complementary_levels():
    sub = classify_all(sts13_s1())
    v = 13
    for n in range(v + 1):
        low = {c.signature.z for c in sub.levels[n]}
        high = {tuple(reversed(c.signature.z)) for c in sub.levels[v - n]}
        assert low == high


def test_determinism_across_thread_counts():
    base = classify_all(fano(), threads=1)
    for threads in (2, 4):
        other = classify_all(fano(), threads=threads)
        assert [
            (c.signature, c.size, c.members.tolist()) for lv in base.levels for c in lv
        ] == [(c.signature, c.size, c.members.tolist()) for lv in other.levels for c in lv]


def test_counts_only_mode():
    sub = classify_all(sts13_s1(), keep_members=False)
    assert sizes(sub.levels[6]) == S1_LEVELS[6]
    assert all(c.members is None for lv in sub.levels for c in lv)
    full = classify_all(sts13_s1())
    for lv_fast, lv_full in zip(sub.levels, full.levels):
        assert [(c.signature, c.size) for c in lv_fast] == [
            (c.signature, c.size) for c in lv_full]
    with pytest.raises(DesignError):
        analyze(sub)


def test_sweep_limit():
    big = full_design(25, 1)
    with pytest.raises(DesignError, match="sweep limit"):
        classify_all(big)


def test_analyze_fano():
    rep = analyze(classify_all(fano()))
    assert all(rep.is_design)
    assert rep.family_friendly
    assert rep.alpha_ok
    assert rep.conjecture
    assert all(rep.level_friendly)
    assert all(rep.self_friend)
    m = rep.friends_matrix
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))


def test_analyze_sts13():
    rep = analyze(classify_all(sts13_s1()))
    keys = rep.class_keys
    assert rep.level_friendly[3] and rep.level_friendly[4]
    assert not rep.level_friendly[5]
    assert not rep.family_friendly
    assert not rep.conjecture
    assert rep.alpha_ok  # classes always partition the power set
    for t, (n, j) in enumerate(keys):
        if n == 6:
            assert not rep.is_design[t]
        if n in (3, 4):
            assert rep.is_design[t] and rep.self_friend[t]
        if n == 5:
            assert rep.is_design[t] and not rep.self_friend[t]


def test_analyze_pg23():
    rep = analyze(classify_all(projective_plane(prime_field(3))))
    assert all(rep.is_design)
    assert rep.family_friendly
    assert rep.conjecture
    assert len(rep.class_keys) == 30


def test_theorem_k3():
    (c1, p1), (c2, p2) = theorem_k3_classes(sts13_s1())
    assert p1 == DesignParams(13, 26, 6, 3, 1)
    assert p2 == DesignParams(13, 260, 60, 3, 10)
    assert c1.size == 26 and c2.size == 260
    (f1, _), (f2, pf2) = theorem_k3_classes(fano())
    assert pf2 == DesignParams(7, 28, 12, 3, 4)
    assert f2.to_family() == non_fano_triples()
    with pytest.raises(DesignError):
        theorem_k3_classes(projective_plane(prime_field(3)))  # k = 4


def test_theorem_k4():
    s1 = sts13_s1()
    (c1, p1), (c2, p2) = theorem_k4_classes(s1)
    assert p1 == DesignParams(13, 260, 80, 4, 20)
    assert p2 == DesignParams(13, 455, 140, 4, 35)
    assert c2.size == 455
    v1 = are_friends(c1.to_family(), s1)
    assert v1.profile_2_1.z == (7, 15, 3, 1)
    assert v1.profile_1_2.z == (70, 150, 30, 10, 0)
    with pytest.raises(DesignError):
        theorem_k4_classes(non_fano_triples())  # lambda = 4


def test_theorem_matches_exhaustive_for_all_k3_parents():
    for parent in (fano(), sts13_s1(), sts13_s2()):
        (c1, p1), (c2, p2) = theorem_k3_classes(parent)
        classes = classify_level(parent, 3)
        assert {frozenset(c.members) for c in classes} == {
            frozenset(c1.members), frozenset(c2.members)}
        assert {c.params for c in classes} == {p1, p2}
        if parent.params.lam == 1:
            (d1, q1), (d2, q2) = theorem_k4_classes(parent)
            lv4 = classify_level(parent, 4)
            assert {frozenset(c.members) for c in lv4} == {
                frozenset(d1.members), frozenset(d2.members)}
            assert {c.params for c in lv4} == {q1, q2}


CLOSED_FORM_PARENTS = {
    "fano": (fano, (3, 4)),
    "sts13_s1": (sts13_s1, (3, 4)),
    "sts13_s2": (sts13_s2, (3, 4)),
    "non_fano_triples": (non_fano_triples, (3,)),  # k = 3, lambda = 4
    "full_8_2": (lambda: full_design(8, 2), (3, 4)),
    "full_7_7": (lambda: full_design(7, 7), (3, 4)),
    "pg23": (lambda: projective_plane(prime_field(3)), (3, 4)),
    "pg24": (lambda: PG24, (3, 4)),
    "pg25": (lambda: projective_plane(prime_field(5)), (3, 4)),
    "pg27": (lambda: projective_plane(prime_field(7)), (3, 4)),
}


@pytest.mark.parametrize("name,n", [
    (name, n) for name, (_, levels) in CLOSED_FORM_PARENTS.items() for n in levels
])
def test_closed_form_classes_match_sweep(name, n):
    parent = CLOSED_FORM_PARENTS[name][0]()
    pairs = closed_form_classes(parent, n)
    classes = classify_level(parent, n)
    assert {frozenset(c.members) for c, _ in pairs} == {frozenset(c.members) for c in classes}
    assert all(c.params == p for c, p in pairs)
    assert sorted(p for _, p in pairs) == sorted(c.params for c in classes)
    ms = [max(j for j, z in enumerate(c.signature.z) if z) for c, _ in pairs]
    assert ms == sorted(ms, reverse=True) and len(set(ms)) == len(ms)


def test_closed_form_classes_refusals():
    for n in (2, 5):
        with pytest.raises(DesignError):
            closed_form_classes(fano(), n)
    with pytest.raises(DesignError):
        closed_form_classes(family(7, [(1, 2, 3), (1, 2, 4), (3, 5, 6)]), 3)
    with pytest.raises(DesignError):
        closed_form_classes(fano_complement(), 3)  # k = 4, lambda = 2
    with pytest.raises(DesignError):
        closed_form_classes(non_fano_triples(), 4)  # lambda = 4
    with pytest.raises(AssertionError, match="expected 2 classes at level 3, found 1"):
        theorem_k3_classes(full_design(7, 3))  # every triple is a block


def test_level_size_guard():
    with pytest.raises(DesignError, match="sweep limit"):
        classify_level(full_design(27, 1), 13)  # C(27,13) > 2^24 >= C(26,13)


def test_exact_keys_when_base_overflows_int64():
    parent = full_design(16, 6)  # (b+1)^(k+1) = 8009^7 > 2^63
    assert len(classify_mod._key_weights(parent.b, parent.k)) > 1
    (cls,) = classify_level(parent, 3)
    assert cls.signature.z == tuple(comb(3, i) * comb(13, 6 - i) for i in range(7))
    assert cls.size == comb(16, 3)
    rng = random.Random(16)
    half = family(16, [blk for blk in parent.blocks if rng.random() < 0.5])
    assert len(classify_mod._key_weights(half.b, half.k)) > 1
    assert _as_oracle(classify_level(half, 2)) == _oracle(half, 2)


def test_members_in_label_tuple_order_not_mask_order():
    (cls,) = classify_level(full_design(4, 1), 2)
    members = cls.members.tolist()
    assert members.index(0b1001) < members.index(0b0110)  # {1,4}, {2,3}


def _as_oracle(classes):
    return [(c.signature.z, c.size, [labels_from_mask(m) for m in c.members])
            for c in classes]


def _oracle(parent, n):
    groups = brute_classify(labels(parent), parent.k, parent.v, n)
    return sorted((sig, len(ms), ms) for sig, ms in groups.items())


def _cyclic_development(v, base):
    """Raw family of the distinct translates of a base block mod v."""
    blocks = {tuple(sorted((x + i) % v + 1 for x in base)) for i in range(v)}
    return family(v, sorted(blocks))


DIFFERENTIAL_POOL = [e.design for e in catalog() if e.design is not None] + [
    projective_plane(prime_field(3)),
    full_design(6, 3), full_design(8, 2), full_design(9, 4), full_design(10, 1),
    complement_design(fano()), complement_design(sts13_s1()),
    complement_design(nine_point_design()),
]


@st.composite
def parents(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(DIFFERENTIAL_POOL))
    v = draw(st.integers(min_value=4, max_value=12))
    base = draw(st.sets(st.integers(0, v - 1), min_size=1, max_size=v - 1))
    return _cyclic_development(v, base)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parents(), st.data(), st.integers(min_value=1, max_value=60))
def test_classify_level_matches_oracle(parent, data, chunk_cells):
    n = data.draw(st.integers(min_value=0, max_value=parent.v))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks_mod, "CHUNK_CELLS", chunk_cells)
        got = classify_level(parent, n)
    assert _as_oracle(got) == _oracle(parent, n)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parents(), st.data(), st.integers(min_value=1, max_value=60))
def test_counts_only_level_matches_oracle(parent, data, chunk_cells):
    """Counts-only classes, merged across chunk edges that fall inside
    classes, have the oracle's signatures and sizes."""
    n = data.draw(st.integers(min_value=0, max_value=parent.v))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks_mod, "CHUNK_CELLS", chunk_cells)
        got = classify_level(parent, n, keep_members=False)
    assert all(c.members is None for c in got)
    assert [(c.signature.z, c.size) for c in got] == [
        (sig, size) for sig, size, _ in _oracle(parent, n)]


@pytest.mark.parametrize("parent, n", [
    (PG24, 4),
    (PG24, 7),
    (PG24, 10),
    (full_design(24, 1), 12),
])
def test_counts_only_memory_is_flat(parent, n):
    """A counts-only level holds one chunk and the class table, not the
    level: 8 MB covers PG(2,4) level 10 (352,716 subsets) and the 2.7M
    subsets of level 12 of a 24-point ground set alike."""
    tracemalloc.start()
    try:
        classify_level(parent, n, keep_members=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_members_mode_memory():
    """The 2^21 members of PG(2,4), kept as uint64 arrays, hold 16 MB; as
    Python ints they held 72 MB."""
    tracemalloc.start()
    try:
        sub = classify_all(PG24)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(c.size for lv in sub.levels for c in lv) == 1 << 21
    assert current < 24 << 20 and peak < 56 << 20


@pytest.mark.parametrize("keep_members", [False, True])
def test_wide_parent_level_memory_is_flat(keep_members):
    """The count and key tables stay within the chunk budget when b is
    large: level 2 of the 48,620 blocks of full_design(18, 9)."""
    parent = full_design(18, 9)
    tracemalloc.start()
    try:
        (cls,) = classify_level(parent, 2, keep_members=keep_members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.size == comb(18, 2)
    assert peak < 8 << 20


def test_counts_only_level_above_members_limit():
    """Counts-only levels may exceed 2^SWEEP_LIMIT subsets; members mode may not."""
    big = full_design(27, 1)
    assert comb(27, 13) > 1 << blocks_mod.SWEEP_LIMIT
    (cls,) = classify_level(big, 13, keep_members=False)
    assert (cls.signature.z, cls.size) == ((14, 13), comb(27, 13))
    with pytest.raises(DesignError, match="counts-only sweep limit 2\\^31"):
        classify_level(full_design(34, 1), 17, keep_members=False)  # C(34,17) > 2^31
    with pytest.raises(DesignError, match="counts-only sweep limit 31"):
        classify_all(full_design(32, 1), keep_members=False)


def test_analyze_level_sts13():
    s1 = sts13_s1()
    rep = analyze_level(s1, classify_level(s1, 5))
    assert rep.self_friend == (False, False, False)
    assert rep.friends_with_parent == (True, True, True)
    assert not rep.level_friendly
    rep3 = analyze_level(s1, classify_level(s1, 3))
    assert all(rep3.self_friend) and rep3.level_friendly


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parents(), st.booleans())
@example(fano(), True)
@example(fano(), False)
@example(sts13_s1(), True)
@example(sts13_s1(), False)
@example(nine_point_design(), True)
@example(nine_point_design(), False)
@example(projective_plane(prime_field(3)), True)
@example(projective_plane(prime_field(3)), False)
def test_complement_levels_equal_direct_sweep(parent, keep_members):
    """Levels above v/2, derived by complement, equal a direct sweep in every
    field, members in order included."""
    sub = classify_all(parent, keep_members=keep_members)
    for n in range(parent.v // 2 + 1, parent.v + 1):
        direct = classify_level(parent, n, keep_members)
        assert _class_facts(sub.levels[n]) == _class_facts(direct)


_PAIRWISE: dict = {}  # (v, blocks) -> the pairwise matrix, computed once per parent


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parents())
@example(fano())
@example(projective_plane(prime_field(3)))
@example(sts13_s1())
@example(sts13_s2())
@example(nine_point_design())
def test_analyze_friends_matrix_equals_pairwise(parent):
    """The subset-lattice friendship matrix of analyze, pinned whatever the
    rule would pick, agrees cell for cell with one are_friends call per pair
    of classes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(friendship_mod, "_lattice_pays", lambda fams: True)
        rep = analyze(classify_all(parent))
    key = (parent.v, frozenset(parent.blocks))
    if key not in _PAIRWISE:
        fams = [cls.to_family() for _, _, cls in rep.subdivision.all_classes()]
        _PAIRWISE[key] = pairwise_friends_matrix(fams)
    assert [list(row) for row in rep.friends_matrix] == _PAIRWISE[key]


@st.composite
def parent_levels(draw):
    parent = draw(parents())
    return parent, draw(st.integers(min_value=0, max_value=parent.v))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parent_levels(), st.booleans())
@example((sts13_s1(), 5), True)
@example((sts13_s1(), 5), False)
@example((projective_plane(prime_field(3)), 3), True)
def test_analyze_level_equals_pairwise(level, lattice):
    """Self-friendship, friendship with the parent and level friendliness,
    read off one matrix by either kernel, equal the pairwise reference."""
    parent, n = level
    classes = classify_level(parent, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(friendship_mod, "_lattice_pays", lambda fams: lattice)
        rep = analyze_level(parent, classes)
    ref = pairwise_friends_matrix([c.to_family() for c in classes] + [parent])
    m = len(classes)
    assert rep.self_friend == tuple(ref[j][j] for j in range(m))
    assert rep.friends_with_parent == tuple(ref[j][m] for j in range(m))
    assert rep.level_friendly == all(ref[i][j] for i in range(m) for j in range(i + 1, m))


def test_friends_matrix_kernel_selection(monkeypatch):
    """The lattice runs on the Fano, PG(2,3) and STS(13) subdivisions, once
    each; PG(2,4) with the 21-point pairs design goes pair by pair."""
    ran = []
    lattice, pairs = friendship_mod.constant_profiles, friendship_mod.are_friends
    monkeypatch.setattr(friendship_mod, "constant_profiles",
                        lambda *a: ran.append("lattice") or lattice(*a))
    monkeypatch.setattr(friendship_mod, "are_friends",
                        lambda *a: ran.append("pairs") or pairs(*a))
    for parent in (fano(), projective_plane(prime_field(3)), sts13_s1(), sts13_s2()):
        ran.clear()
        analyze(classify_all(parent))
        assert ran == ["lattice"]
    ran.clear()
    assert friends_matrix([PG24, full_design(21, 2)]).all()
    assert ran == ["pairs"] * 3


def _assert_packed_keys(parent, n, chunk_cells):
    """Every chunk's packed key is the profile key W @ profile_rows less the
    constant b W[:, 0], with the tables and chunks both bounded by
    chunk_cells."""
    weights = classify_mod._key_weights(parent.b, parent.k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks_mod, "CHUNK_CELLS", chunk_cells)
        keys = classify_mod._packed_keys(parent)
    for subs in level_chunks(parent.v, n, max(1, chunk_cells // parent.b)):
        rows = profile_rows(intersection_sizes(subs, parent.blocks), parent.k)
        expected = weights @ rows.T - parent.b * weights[:, :1]
        assert keys(subs).tolist() == expected.tolist()


# field widths f = k.bit_length() at k = 3/4 and 7/8, mask slices at
# v = 8/9, 16/17 and 24/25, both degenerate parents, and a parent whose
# counts fill 382 words and whose key needs two int64 words
KEY_EDGES = [
    _cyclic_development(8, {0, 1, 3}),
    _cyclic_development(9, {0, 1, 2, 4}),
    _cyclic_development(16, {0, 1, 2, 4, 5, 8, 11}),
    _cyclic_development(17, {0, 1, 2, 3, 5, 7, 10, 12}),
    _cyclic_development(24, {0, 1, 3, 7}),
    _cyclic_development(25, {0, 1, 2, 5, 8, 12, 17, 20}),
    _cyclic_development(25, {0, 1, 5}),
    empty_design(9),
    whole_design(8),
    whole_design(25),
    full_design(16, 6),
]


@pytest.mark.parametrize("chunk_cells", [7, 1 << 18])
@pytest.mark.parametrize("parent", KEY_EDGES, ids=lambda p: f"v{p.v}-b{p.b}-k{p.k}")
def test_packed_keys_at_field_and_slice_edges(parent, chunk_cells):
    """Every level small enough to check, the top levels included, where
    subsets hold whole blocks and each count field reaches k."""
    for n in range(parent.v + 1):
        if comb(parent.v, n) <= 3000:
            _assert_packed_keys(parent, n, chunk_cells)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(parent_levels(), st.integers(min_value=1, max_value=60))
def test_packed_keys_equal_profile_keys(level, chunk_cells):
    _assert_packed_keys(*level, chunk_cells)


@pytest.mark.parametrize("parent", [
    _cyclic_development(63, {0, 1, 3}),
    _cyclic_development(64, {0, 1, 3, 7, 12}),
], ids=["v63", "v64"])
def test_packed_keys_at_top_bit(parent):
    """Blocks through bits 62 and 63 are read from the last mask slice: the
    keys and the classes at the bottom and top levels match the oracle."""
    assert max(parent.blocks.tolist()).bit_length() == parent.v
    v = parent.v
    for n in (0, 1, 2, v - 2, v - 1, v):
        _assert_packed_keys(parent, n, 1 << 18)
        assert _as_oracle(classify_level(parent, n)) == _oracle(parent, n)


WIDE = full_design(16, 6)  # b = 8008: the key needs two int64 words
DECODE_LEVELS = [
    (fano(), range(8)),
    (sts13_s1(), range(14)),
    (WIDE, (0, 3, 16)),
    (family(16, WIDE.blocks[::2]), (0, 2, 16)),  # b = 4004, two words
]


@pytest.mark.parametrize("parent, levels", DECODE_LEVELS, ids=["fano", "sts13_s1", "wide", "half"])
def test_signatures_decoded_at_digit_edges(parent, levels):
    """Each class's signature, read back from its key's base-(b+1) digits,
    is the profile of its first member; at level 0 z_0 = b and at level v
    z_k = b, the top digit of the base, in the first and the last key word."""
    for n in levels:
        for cls in classify_level(parent, n):
            first = profile_rows(intersection_sizes(cls.members[:1], parent.blocks), parent.k)
            assert cls.signature.z == tuple(first[0].tolist())
    zeros = (0,) * parent.k
    for n, z in ((0, (parent.b,) + zeros), (parent.v, zeros + (parent.b,))):
        assert [c.signature.z for c in classify_level(parent, n, keep_members=False)] == [z]


def test_one_patch_reaches_every_chunked_kernel(monkeypatch):
    """blocks.CHUNK_CELLS, set alone, sizes the pieces of every chunked
    kernel: on the Fano plane and its 35 triples, profile_pieces,
    detect_params' Gram sum, classify_level's level walk and
    constant_profiles' lattice columns each take one piece at the default
    and more than one at 64 cells.  Counting spies see the pieces."""
    parent, triples, pair = fano(), level_masks(7, 3), [fano(), full_design(7, 2)]
    pieces = Counter()
    rows, unpack = profiles_mod.profile_rows, np.unpackbits
    chunks, sums = classify_mod.level_chunks, friendship_mod.subset_sums

    def counted_rows(*args):
        pieces["profile_pieces"] += 1
        return rows(*args)

    def counted_unpack(*args, **kwargs):
        pieces["detect_params"] += 1
        return unpack(*args, **kwargs)

    def counted_chunks(*args):
        for piece in chunks(*args):
            pieces["classify_level"] += 1
            yield piece

    def counted_sums(a, v, *args, supersets=False, **kwargs):
        pieces["constant_profiles"] += supersets  # one superset sum a column block
        return sums(a, v, *args, supersets=supersets, **kwargs)

    monkeypatch.setattr(profiles_mod, "profile_rows", counted_rows)
    monkeypatch.setattr(np, "unpackbits", counted_unpack)  # detect_params' piece step
    monkeypatch.setattr(classify_mod, "level_chunks", counted_chunks)
    monkeypatch.setattr(friendship_mod, "subset_sums", counted_sums)

    def walk():
        pieces.clear()
        list(profile_pieces(parent, triples))
        detect_params(triples, 7)
        classify_level(parent, 3, keep_members=False)  # calls no detect_params
        constant_profiles(pair)
        return dict(pieces)

    kernels = ["profile_pieces", "detect_params", "classify_level", "constant_profiles"]
    assert walk() == dict.fromkeys(kernels, 1)
    monkeypatch.setattr(blocks_mod, "CHUNK_CELLS", 64)
    split = walk()
    assert sorted(split) == sorted(kernels) and min(split.values()) > 1, split
