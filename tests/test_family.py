import random
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from blockfriends import (
    DesignError,
    FriendlyFamily,
    IntersectionProfile,
    alpha,
    build_family,
    check_alpha_hypotheses,
    check_order_preservation,
    classify_all,
    classify_level,
    export_hasse,
    family,
    fano,
    fano_family,
    fano_family_members,
    full_design,
    less_than,
    order_relation,
    prime_field,
    projective_plane,
    sts13_s1,
    transitive_reduction,
)
from oracle_util import brute_order_preservation

FANO_COVERING = {
    ("full-0", "full-1"), ("full-1", "full-2"), ("full-2", "fano"),
    ("full-2", "non-fano-triples"), ("fano", "non-fano-quads"),
    ("non-fano-triples", "fano-complement"), ("non-fano-triples", "non-fano-quads"),
    ("fano-complement", "full-5"), ("non-fano-quads", "full-5"),
    ("full-5", "full-6"), ("full-6", "full-7"),
}


def full_chain(v):
    return build_family([full_design(v, k) for k in range(v + 1)])


def named_pairs(fam, pairs):
    return {(fam.member_label(i), fam.member_label(j)) for (i, j) in pairs}


def test_fano_family_builds_and_canonical_order():
    fam = fano_family()
    assert len(fam.members) == 10
    ks = [d.k for d in fam.members]
    assert ks == sorted(ks)
    labels = [fam.member_label(i) for i in range(10)]
    assert labels == ["full-0", "full-1", "full-2", "non-fano-triples", "fano",
                      "non-fano-quads", "fano-complement", "full-5", "full-6",
                      "full-7"]


def test_build_family_order_insensitive():
    members = list(fano_family_members())
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(members)
        fam = build_family(members)
        assert fam.members == fano_family().members
        assert fam.pair_profiles == fano_family().pair_profiles


def test_build_family_rejects_non_friends():
    classes = classify_level(sts13_s1(), 5)
    pair = [classes[0].to_family("a"), classes[1].to_family("b")]
    with pytest.raises(DesignError, match="not friends"):
        build_family(pair)


def test_build_family_rejects_mixed_ground_sets_and_duplicates():
    with pytest.raises(DesignError, match="ground sets"):
        build_family([fano(), full_design(8, 3)])
    with pytest.raises(DesignError, match="duplicate"):
        build_family([fano(), fano()])


def test_build_family_rejects_raw_families():
    raw = classify_level(sts13_s1(), 6)[0].to_family("six")
    with pytest.raises(DesignError, match="not a validated design"):
        build_family([raw])


def test_less_than_examples():
    fam = fano_family()
    idx = {fam.member_label(i): i for i in range(10)}
    assert less_than(fam, idx["full-2"], idx["fano"])
    assert less_than(fam, idx["fano"], idx["non-fano-quads"])
    assert not less_than(fam, idx["fano"], idx["fano-complement"])
    assert not less_than(fam, idx["fano"], idx["fano"])
    assert not less_than(fam, idx["fano"], idx["non-fano-triples"])  # equal k
    with pytest.raises(IndexError):
        less_than(fam, 0, 99)


def test_order_relation_fano():
    fam = fano_family()
    rel = order_relation(fam)
    assert rel.is_transitive
    assert rel.closure_antisymmetric
    assert len(rel.pairs) == 42
    covering = named_pairs(fam, transitive_reduction(rel))
    assert covering == FANO_COVERING


def test_full_chain_is_total_order():
    fam = full_chain(7)
    rel = order_relation(fam)
    assert len(rel.pairs) == 8 * 7 // 2
    covering = sorted(transitive_reduction(rel))
    assert covering == [(i, i + 1) for i in range(7)]


def test_equal_block_size_gives_empty_relation():
    s1 = sts13_s1()
    rest = classify_level(s1, 3)[1].to_family("non-blocks")
    fam = build_family([s1, rest])
    rel = order_relation(fam)
    assert rel.pairs == frozenset()


def test_alpha_examples():
    fam = fano_family()
    assert fam.member_label(alpha(fam, (2, 3, 5))) == "fano"
    assert fam.member_label(alpha(fam, (1, 2, 3))) == "non-fano-triples"
    assert fam.member_label(alpha(fam, ())) == "full-0"
    assert fam.member_label(alpha(fam, (1, 2, 3, 4, 5, 6, 7))) == "full-7"


def test_alpha_hypotheses():
    assert check_alpha_hypotheses(fano_family())
    assert check_alpha_hypotheses(full_chain(7))
    gapped = build_family(
        [full_design(7, 0)] + [full_design(7, k) for k in range(2, 8)])
    assert not check_alpha_hypotheses(gapped)
    with pytest.raises(DesignError):
        alpha(gapped, (1,))


def test_order_preservation():
    assert check_order_preservation(fano_family())
    assert check_order_preservation(full_chain(7))
    assert check_order_preservation(full_chain(4))


def test_order_preservation_detects_a_pair_against_the_order():
    fam = fano_family()
    profiles = dict(fam.pair_profiles)
    old = profiles[(0, 1)]  # full-0 below full-1, so {} below {1}
    profiles[(0, 1)] = IntersectionProfile((0,) * len(old.z), old.m)
    broken = FriendlyFamily(fam.v, fam.members, profiles)
    assert not less_than(broken, 0, 1)
    assert not check_order_preservation(broken)
    gapped = FriendlyFamily(fam.v, fam.members[1:], {})  # the empty set is uncovered
    with pytest.raises(DesignError, match="partition"):
        check_order_preservation(gapped)


def test_corrupted_family_fails_before_order_check():
    # swapping one block between the two size-3 members breaks the design axioms
    members = fano_family_members()
    fano_blocks = list(members[3].blocks)
    rest_blocks = list(members[4].blocks)
    fano_blocks[0], rest_blocks[0] = rest_blocks[0], fano_blocks[0]
    from blockfriends import design

    with pytest.raises(DesignError):
        design(7, fano_blocks)


def test_export_hasse_chain():
    rel = order_relation(full_chain(7))
    dot = export_hasse(rel)
    assert dot.count(" -> ") == 7
    assert dot.count("[label=") == 8
    assert "full-0 (degenerate)" in dot
    assert "full-7 (7,1,1,7,1)" in dot


def test_export_hasse_fano_matches_covering():
    fam = fano_family()
    rel = order_relation(fam)
    dot = export_hasse(rel)
    assert dot.count(" -> ") == len(FANO_COVERING)
    assert 'n4 [label="fano (7,7,3,3,1)"];' in dot
    assert export_hasse(rel) == dot  # deterministic


def test_export_hasse_empty_relation():
    s1 = sts13_s1()
    rest = classify_level(s1, 3)[1].to_family("non-blocks")
    dot = export_hasse(order_relation(build_family([s1, rest])))
    assert " -> " not in dot
    assert dot.count("[label=") == 2


@cache
def pg23_family():
    """The PG(2,3) classes of levels 1..12 plus the two degenerate designs."""
    sub = classify_all(projective_plane(prime_field(3)))
    classes = [cls.to_family(f"class-{n}-{j}") for n, j, cls in sub.all_classes()
               if 0 < n < sub.v]
    return build_family(classes + [full_design(13, 0), full_design(13, 13)])


def zeroed(fam, key):
    """A copy of the family with pair profile `key` set to all zeros."""
    profiles = dict(fam.pair_profiles)
    old = profiles[key]
    profiles[key] = IntersectionProfile((0,) * len(old.z), old.m)
    return FriendlyFamily(fam.v, fam.members, profiles)


def brute_force_verdict(fam):
    n = len(fam.members)
    order = {(i, j) for i in range(n) for j in range(n) if less_than(fam, i, j)}
    blocks = [d.block_labels() for d in fam.members]
    return brute_order_preservation(fam.v, blocks, order)


ORDER_FAMILIES = [fano_family, *(partial(full_chain, v) for v in range(4, 8)),
                  pg23_family]


@st.composite
def order_families(draw):
    fam = draw(st.sampled_from(ORDER_FAMILIES))()
    if draw(st.booleans()):
        fam = zeroed(fam, draw(st.sampled_from(sorted(fam.pair_profiles))))
    return fam


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(order_families())
@example(fano_family())  # preserved
@example(zeroed(fano_family(), (0, 1)))  # {} and {1} against the order
def test_order_preservation_matches_brute_force(fam):
    assert check_order_preservation(fam) == brute_force_verdict(fam)


@st.composite
def random_partitions(draw):
    """Each level of 2^V split at random into up to three raw families, under
    the order that puts every smaller block size below every larger one, with
    a few pairs then dropped from it."""
    v = draw(st.integers(min_value=1, max_value=6))
    members = []
    for n in range(v + 1):
        level = list(combinations(range(1, v + 1), n))
        parts = draw(st.lists(st.integers(0, 2), min_size=len(level),
                              max_size=len(level)))
        for part in sorted(set(parts)):
            members.append(family(v, [s for s, p in zip(level, parts) if p == part]))
    profiles = {
        (i, j): IntersectionProfile((0,) * a.k + (1,), b.k)
        for i, a in enumerate(members) for j, b in enumerate(members) if i != j
    }
    fam = FriendlyFamily(v, tuple(members), profiles)
    for key in draw(st.lists(st.sampled_from(sorted(profiles)), max_size=3)):
        fam = zeroed(fam, key)
    return fam


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_partitions())
def test_order_preservation_matches_brute_force_on_random_partitions(fam):
    assert check_order_preservation(fam) == brute_force_verdict(fam)
