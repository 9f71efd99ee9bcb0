import random
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import blockfriends.classify as classify_mod
from blockfriends import (
    DesignError,
    DesignParams,
    analyze,
    analyze_level,
    are_friends,
    catalog,
    classify_all,
    classify_level,
    complement_design,
    family,
    fano,
    fano_family_members,
    full_design,
    labels_from_mask,
    nine_point_design,
    non_fano_triples,
    prime_field,
    projective_plane,
    sts13_s1,
    sts13_s2,
    theorem_k3_classes,
    theorem_k4_classes,
)
from oracle_util import brute_classify, labels


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
    return [(c.signature, c.size, c.params, c.witness, c.members) for c in classes]


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
            (c.signature, c.size, c.members) for lv in base.levels for c in lv
        ] == [(c.signature, c.size, c.members) for lv in other.levels for c in lv]


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
    assert cls.members.index(0b1001) < cls.members.index(0b0110)  # {1,4}, {2,3}


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
        mp.setattr(classify_mod, "CHUNK_CELLS", chunk_cells)
        got = classify_level(parent, n)
    assert _as_oracle(got) == _oracle(parent, n)


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
