"""Randomized property suites over the bundled designs and their derivatives."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import blockfriends.friendship as friendship_mod

from blockfriends import (
    are_friends,
    build_family,
    catalog,
    check_count_identity,
    check_moment_identities,
    classify_all,
    classify_level,
    complement_design,
    complement_transfer,
    fano,
    fano_complement,
    fano_family_members,
    full_design,
    full_mask,
    is_self_friend,
    nine_point_design,
    non_fano_quads,
    non_fano_triples,
    penultimate_full_profiles,
    prime_field,
    profile,
    projective_plane,
    sts13_s1,
    sts13_s2,
)
from oracle_util import brute_friends, brute_profile, labels

MANY = settings(
    max_examples=220,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

S1 = sts13_s1()
S1_CLASSES = {
    n: [c.to_family(f"s1-{n}-{i}") for i, c in enumerate(classify_level(S1, n))]
    for n in (3, 4, 5, 6)
}
PG22 = projective_plane(prime_field(2))
PG23 = projective_plane(prime_field(3))
PG23_CLASSES = [
    cls.to_family(f"pg23-{n}-{j}")
    for n, level in enumerate(classify_all(PG23).levels)
    for j, cls in enumerate(level)
]

DESIGN_POOL = [
    fano(), nine_point_design(), S1, sts13_s2(),
    non_fano_triples(), fano_complement(), non_fano_quads(),
    PG22, PG23,
    full_design(6, 3), full_design(8, 2), full_design(9, 4), full_design(13, 12),
    *S1_CLASSES[3], *S1_CLASSES[4], *S1_CLASSES[5],
]
VALID_POOL = [d for d in DESIGN_POOL if d.params is not None]

FRIEND_PAIRS = (
    [(a, b) for i, a in enumerate(fano_family_members())
     for b in fano_family_members()[i + 1:]]
    + [(S1, c) for c in S1_CLASSES[3] + S1_CLASSES[4] + S1_CLASSES[5]]
    + [(a, b) for i, a in enumerate(PG23_CLASSES[:14])
       for b in PG23_CLASSES[:14][i + 1:]]
    + [(full_design(8, j), full_design(8, k)) for j in range(1, 7)
       for k in range(j + 1, 8)]
)

SAME_V_PAIRS = FRIEND_PAIRS + [
    (S1_CLASSES[5][0], S1_CLASSES[5][1]),
    (S1_CLASSES[5][0], S1_CLASSES[5][0]),
    (S1_CLASSES[6][0], S1),
    (fano(), full_design(7, 3)),
    (nine_point_design(), nine_point_design()),
]


@st.composite
def design_and_probe(draw):
    d = draw(st.sampled_from(VALID_POOL))
    mask = draw(st.integers(min_value=0, max_value=full_mask(d.v)))
    return d, mask


@MANY
@given(design_and_probe())
def test_moment_identities_hold(case):
    d, probe = case
    assert check_moment_identities(profile(d, probe), d.params)


@MANY
@given(st.sampled_from(VALID_POOL))
def test_full_probe_and_empty_probe(d):
    assert profile(d, full_mask(d.v)).z[d.k] == d.b
    assert profile(d, 0).z[0] == d.b


@MANY
@given(st.sampled_from(FRIEND_PAIRS))
def test_count_identity_on_friend_pairs(pair):
    a, b = pair
    verdict = are_friends(a, b)
    assert verdict.friends
    assert check_count_identity(verdict, a.b, b.b)


@MANY
@given(st.sampled_from([p for p in FRIEND_PAIRS if 0 < p[1].k < p[1].v]))
def test_complement_transfer_matches_sweep(pair):
    a, d1 = pair
    before = are_friends(a, d1)
    after = are_friends(a, complement_design(d1))
    assert before.friends and after.friends
    assert after.profile_1_2 == complement_transfer(before.profile_1_2, a.k, a.v)


@MANY
@given(st.sampled_from([d for d in VALID_POOL
                        if d.params.lam == 1 or d.params.k == 3
                        or d.params.b == d.params.v]))
def test_self_friend_shortcut_equals_sweep(d):
    fast = is_self_friend(d)
    slow = are_friends(d, d)
    assert fast.friends and slow.friends
    assert fast.profile_1_2 == slow.profile_1_2
    assert fast.theorem_case is not None


@MANY
@given(st.sampled_from([d for d in VALID_POOL if d.k < d.v - 1]))
def test_penultimate_profiles_match_sweep(d):
    z, w = penultimate_full_profiles(d.params)
    verdict = are_friends(d, full_design(d.v, d.v - 1))
    assert verdict.friends
    assert verdict.profile_1_2 == z
    assert verdict.profile_2_1 == w
    assert z.z[d.k] == d.params.b - d.params.r


def test_penultimate_on_non_symmetric_design():
    # b - r = 20 differs from b - k = 23 here, so the sweep pins the right form
    z, _ = penultimate_full_profiles(S1.params)
    assert z.z == (0, 0, 6, 20)


@MANY
@given(st.sampled_from(SAME_V_PAIRS))
def test_friendship_symmetry(pair):
    a, b = pair
    ab, ba = are_friends(a, b), are_friends(b, a)
    assert ab.friends == ba.friends
    if ab.friends:
        assert ab.profile_1_2 == ba.profile_2_1
        assert ab.profile_2_1 == ba.profile_1_2


DETERMINISM_BASE = {
    d.name: classify_all(d, threads=1)
    for d in (fano(), PG22, nine_point_design(), full_design(6, 3))
}


@MANY
@given(
    st.sampled_from([fano(), PG22, nine_point_design(), full_design(6, 3)]),
    st.integers(min_value=1, max_value=6),
)
def test_classification_deterministic_across_threads(parent, threads):
    sub = classify_all(parent, threads=threads)
    base = DETERMINISM_BASE[parent.name]
    assert [
        (c.signature, c.size, c.members.tolist()) for lv in sub.levels for c in lv
    ] == [(c.signature, c.size, c.members.tolist()) for lv in base.levels for c in lv]


@MANY
@given(st.permutations(list(fano_family_members())))
def test_build_family_order_insensitive(members):
    fam = build_family(members)
    assert [fam.member_label(i) for i in range(10)] == [
        "full-0", "full-1", "full-2", "non-fano-triples", "fano",
        "non-fano-quads", "fano-complement", "full-5", "full-6", "full-7",
    ]


def _witness_pool():
    """Catalog designs, their level classes and complements, grouped by v."""
    by_v = {}
    for e in catalog():
        if e.design is None:
            continue
        d = e.design
        pool = [d] + [
            cls.to_family(f"{e.name}-{n}-{j}")
            for n, level in enumerate(classify_all(d).levels)
            for j, cls in enumerate(level)
            if 0 < n < d.v and cls.size <= 300
        ]
        by_v.setdefault(d.v, []).extend(pool + [complement_design(x) for x in pool])
    return [(a, b) for fams in by_v.values() for a in fams for b in fams]


def _oracle_witness(a, b):
    """(side, 0, j): j is the lowest probe whose brute-force profile differs
    from probe 0's, side 1 (a probed by the blocks of b) tried first."""
    for side, (target, probes) in enumerate(((a, b), (b, a)), start=1):
        blocks, probe_sets = labels(target), labels(probes)
        first = brute_profile(blocks, probe_sets[0], target.k)
        for j, probe in enumerate(probe_sets):
            if brute_profile(blocks, probe, target.k) != first:
                return (side, 0, j)
    return None


@settings(MANY, max_examples=150)
@given(st.sampled_from(_witness_pool()))
def test_witness_is_first_differing_probe(pair):
    a, b = pair
    assert are_friends(a, b).witness == _oracle_witness(a, b)


@settings(MANY, max_examples=150)
@given(st.sampled_from(_witness_pool()), st.integers(min_value=1, max_value=60))
def test_chunked_are_friends_matches_oracle(pair, chunk_cells):
    """Probes walked in pieces of chunk_cells // b rows, down to one row a
    piece, give the oracle's verdict, profiles and witness."""
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(friendship_mod, "CHUNK_CELLS", chunk_cells)
        got = are_friends(a, b)
    friends, p12, p21 = brute_friends(labels(a), a.k, labels(b), b.k)
    assert got.friends == friends
    assert got.witness == _oracle_witness(a, b)
    if friends:
        assert (got.profile_1_2.z, got.profile_2_1.z) == (p12, p21)
