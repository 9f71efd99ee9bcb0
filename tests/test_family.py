import random
import tracemalloc
from functools import cache, partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from blockfriends import (
    BlockDesign,
    DesignError,
    FriendlyFamily,
    IntersectionProfile,
    NotFriendsError,
    OrderRelation,
    alpha,
    are_friends,
    build_family,
    check_alpha_hypotheses,
    check_order_preservation,
    classify_all,
    classify_level,
    constant_profiles,
    design,
    export_hasse,
    family,
    fano,
    fano_family,
    fano_family_members,
    friends_matrix,
    full_design,
    less_than,
    nine_point_design,
    order_relation,
    prime_field,
    projective_plane,
    sts13_s1,
    sts13_s2,
    transitive_reduction,
)
from blockfriends import blocks as blocks_mod
from blockfriends import families as families_mod
from blockfriends import friendship as friendship_mod
from blockfriends.families import power_set_owner
from oracle_util import (
    brute_closure,
    brute_order_preservation,
    brute_transitive_reduction,
    pairwise_friends_matrix,
)

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
    strided = family(8, full_design(8, 3).blocks[::2], "every other triple")
    for members in ([raw], [strided]):
        with pytest.raises(DesignError, match="not a validated design"):
            build_family(members)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_family_memory_within_friends_matrix():
    """The sort keys (8 B per block) and the stored profiles (counted in
    pieces) stay below the friendship matrix's own peak on the chain
    full_design(20, 0..20), whose largest member has 184,756 blocks."""
    members = [full_design(20, k) for k in range(21)]
    matrix_peak = _traced_peak(lambda: friends_matrix(members))
    assert _traced_peak(lambda: build_family(members)) <= matrix_peak + (1 << 20)


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


# ---------------------------------------------------------------- all-pairs kernel

KERNEL_FAMILIES = [fano_family, pg23_family,
                   *(partial(full_chain, v) for v in range(4, 8))]


@pytest.mark.parametrize("make", KERNEL_FAMILIES)
def test_kernel_pair_profiles_equal_pairwise(make):
    """The lattice kernel shows every pair friends, and build_family stores
    exactly the profiles of are_friends."""
    fam = make()
    members = list(fam.members)
    const = constant_profiles(members)
    assert const.all()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            verdict = are_friends(members[i], members[j])
            assert fam.pair_profiles[(i, j)] == verdict.profile_1_2
            assert fam.pair_profiles[(j, i)] == verdict.profile_2_1


PAIRWISE_FAMILIES = {
    "fano_full5": lambda: [fano(), full_design(7, 5)],
    "sts13_s1_non_blocks": lambda: [
        sts13_s1(), classify_level(sts13_s1(), 3)[1].to_family("non-blocks")],
}


@pytest.mark.parametrize("case", sorted(PAIRWISE_FAMILIES))
def test_pairwise_path_stores_are_friends_profiles(case):
    """On a family whose blocks do not partition 2^V, build_family stores
    the profiles of are_friends, each pair in its own direction."""
    members = PAIRWISE_FAMILIES[case]()
    assert power_set_owner(members[0].v, members) is None
    fam = build_family(members)
    assert len(fam.pair_profiles) == 2
    verdict = are_friends(fam.members[0], fam.members[1])
    assert fam.pair_profiles[(0, 1)] == verdict.profile_1_2
    assert fam.pair_profiles[(1, 0)] == verdict.profile_2_1


# F1 and F2 are Fano planes sharing the blocks 123, 347 and 356.
F1_BLOCKS = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
F2_BLOCKS = [(1, 2, 3), (1, 4, 6), (1, 5, 7), (2, 4, 5), (2, 6, 7), (3, 4, 7), (3, 5, 6)]


def unfriendly_partition(rotation=0):
    """A partition of 2^V, v = 7, that is not a friendly family: full-0..2,
    F1, the other triples R1, the complements F2c of F2, the other quads R2
    and full-5..7.  F2c's blocks start at F2's block number `rotation`; at 0
    its first block is the complement of a block of F1, not of R1."""
    f2c = [tuple(sorted(set(range(1, 8)) - set(b))) for b in F2_BLOCKS]
    f2c = f2c[rotation:] + f2c[:rotation]
    r1 = [t for t in combinations(range(1, 8), 3) if t not in F1_BLOCKS]
    r2 = [q for q in combinations(range(1, 8), 4) if q not in f2c]
    return ([full_design(7, k) for k in (0, 1, 2)]
            + [design(7, F1_BLOCKS, "F1"), design(7, r1, "R1"),
               design(7, f2c, "F2c"), design(7, r2, "R2")]
            + [full_design(7, k) for k in (5, 6, 7)])


def test_kernel_not_friends_error_matches_pairwise(monkeypatch):
    members = unfriendly_partition()
    assert power_set_owner(7, members) is not None
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: True)
    with pytest.raises(NotFriendsError) as lattice:
        build_family(members)
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: False)
    with pytest.raises(NotFriendsError) as pairwise:
        build_family(members)
    assert str(lattice.value) == str(pairwise.value) == (
        "F1 and R2 are not friends (witness ProfileMismatch(side=1, i=0, j=8))")


@pytest.mark.parametrize("lattice", [True, False])
def test_build_family_calls_are_friends_for_the_witness_only(monkeypatch, lattice):
    """Whichever kernel decides the pairs, build_family itself asks
    are_friends only for the witness of the first failing pair."""
    calls = []
    real = families_mod.are_friends
    monkeypatch.setattr(families_mod, "are_friends", lambda a, b: calls.append(1) or real(a, b))
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: lattice)
    build_family(pg23_family().members)
    assert calls == []
    with pytest.raises(NotFriendsError):
        build_family(unfriendly_partition())
    assert len(calls) == 1


def split_partition():
    """A partition of 2^V, v = 7, into raw families where two members, F1
    and seven other triples X, share a block size and a block count, and so
    do their complements."""
    triples = [t for t in combinations(range(1, 8), 3) if t not in F1_BLOCKS]
    parts = [F1_BLOCKS, triples[:7], triples[7:]]
    quads = [[tuple(sorted(set(range(1, 8)) - set(b))) for b in p] for p in parts]
    return ([full_design(7, k) for k in (0, 1, 2)]
            + [family(7, p) for p in parts + quads]
            + [full_design(7, k) for k in (5, 6, 7)])


def _subdivision_classes(parent):
    return [cls.to_family() for _, _, cls in classify_all(parent).all_classes()]


COMPLEMENT_CASES = {
    "fano": partial(_subdivision_classes, fano()),
    "nine_point": partial(_subdivision_classes, nine_point_design()),
    "pg23": partial(_subdivision_classes, projective_plane(prime_field(3))),
    "sts13_s1": partial(_subdivision_classes, sts13_s1()),
    "sts13_s2": partial(_subdivision_classes, sts13_s2()),
    "split": split_partition,
    **{f"unfriendly-{r}": partial(unfriendly_partition, r) for r in range(7)},
}


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
def test_complement_rows_equal_direct_rows(monkeypatch, case):
    """friends_matrix, which runs the lattice on one member per complement
    pair, equals the friendship read off constant_profiles over the whole
    family, and transforms fewer lattice columns."""
    fams = COMPLEMENT_CASES[case]()
    columns = []
    real = friendship_mod.subset_sums

    def counted(a, *args, **kwargs):
        columns.append(a.shape[1] if a.ndim == 2 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(friendship_mod, "subset_sums", counted)
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: True)
    matrix = friends_matrix(fams)
    reduced = sum(columns)
    columns.clear()
    const = constant_profiles(fams)
    assert reduced < sum(columns)
    assert (matrix == (const & const.T)).all()


def test_pairwise_kernel_runs_once_per_member_up_to_complement(monkeypatch):
    """Pair by pair, the ten Fano subdivision classes, five complement
    pairs, take the 15 are_friends calls of five members, not 55, and give
    the pairwise reference."""
    fams = COMPLEMENT_CASES["fano"]()
    ref = pairwise_friends_matrix(fams)
    calls = []
    real = friendship_mod.are_friends
    monkeypatch.setattr(friendship_mod, "are_friends", lambda a, b: calls.append(1) or real(a, b))
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: False)
    assert friends_matrix(fams).tolist() == ref
    assert len(calls) == 15


subdivision_classes = cache(lambda case: COMPLEMENT_CASES[case]())


@st.composite
def families_with_repeats(draw):
    """Classes of a catalog subdivision, some followed by their complement
    with the block order reversed or by a copy with the blocks reordered,
    shuffled so that a complement may come before its partner."""
    classes = subdivision_classes(draw(st.sampled_from(["fano", "nine_point", "sts13_s1"])))
    rng = draw(st.randoms(use_true_random=False))
    fams = []
    for d in draw(st.lists(st.sampled_from(classes), min_size=1, max_size=4)):
        fams.append(d)
        if draw(st.booleans()):
            fams.append(BlockDesign(d.v, np.uint64((1 << d.v) - 1) ^ d.blocks[::-1], None))
        if draw(st.booleans()):
            fams.append(BlockDesign(d.v, d.blocks[rng.sample(range(d.b), d.b)], None))
    rng.shuffle(fams)
    return fams


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(families_with_repeats())
def test_friends_matrix_with_complements_and_copies_equals_pairwise(fams):
    ref = pairwise_friends_matrix(fams)
    for lattice in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(friendship_mod, "_lattice_pays", lambda fams: lattice)
            assert friends_matrix(fams).tolist() == ref


def test_int32_moments_equal_int64_moments(monkeypatch):
    """Every transform of the PG(2,3) subdivision runs in int32, and forcing
    int64 gives the same const."""
    fams = COMPLEMENT_CASES["pg23"]()
    assert {friendship_mod._moment_dtype(d.b, d.k) for d in fams} == {np.int32}
    const = constant_profiles(fams)
    monkeypatch.setattr(friendship_mod, "_moment_dtype", lambda b, k: np.int64)
    const_wide = constant_profiles(fams)
    assert (const == const_wide).all()


BLOCK_CASES = {
    **COMPLEMENT_CASES,
    "fano_family": lambda: list(fano_family().members),
    "pg23_family": lambda: list(pg23_family().members),
    **{f"full_chain-{v}": partial(lambda v: list(full_chain(v).members), v)
       for v in range(4, 8)},
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_size_does_not_change_results(monkeypatch, case):
    """Blocks of one, two or three columns give the result of the default
    blocks, over the whole family and over friends_matrix's members up to
    complement.  Two- and three-column blocks end inside the ranked columns
    of a member; with int32 and int64 members mixed, the blocks holding
    both run in int64."""
    fams = BLOCK_CASES[case]()
    v = fams[0].v
    for kernel in (constant_profiles, friends_matrix):
        const = kernel(fams)
        for columns, mixed in ((1, False), (2, False), (3, False), (3, True)):
            with monkeypatch.context() as m:
                m.setattr(blocks_mod, "CHUNK_CELLS", columns << v)
                if mixed:
                    m.setattr(friendship_mod, "_moment_dtype",
                              lambda b, k: np.int64 if k % 2 else np.int32)
                const_blocked = kernel(fams)
            assert (const_blocked == const).all()


@pytest.mark.parametrize("b, k, dtype", [
    ((1 << 31) // 20, 6, np.int32),  # b C(6, 3) = 2^31 - 8
    ((1 << 31) // 20 + 1, 6, np.int64),
    ((1 << 31) - 1, 1, np.int32),  # C(1, 0) = 1
    (1 << 31, 1, np.int64),
])
def test_moment_dtype_bound(b, k, dtype):
    assert friendship_mod._moment_dtype(b, k) is dtype


# ---------------------------------------------------------------- owner cache and order


def test_alpha_builds_the_owner_once(monkeypatch):
    fam = pg23_family()
    masks = random.Random(3).sample(range(1 << fam.v), 100)
    owner_of = {m: i for i, d in enumerate(fam.members) for m in d.blocks}
    built = []

    def counted(v, designs):
        built.append(v)
        return power_set_owner(v, designs)

    monkeypatch.setattr(families_mod, "power_set_owner", counted)
    fresh = FriendlyFamily(fam.v, fam.members, fam.pair_profiles)
    assert [alpha(fresh, m) for m in masks] == [owner_of[m] for m in masks]
    assert check_alpha_hypotheses(fresh) and check_order_preservation(fresh)
    assert len(built) == 1
    rebuilt = build_family(fam.members)
    assert [alpha(rebuilt, m) for m in masks] == [owner_of[m] for m in masks]
    assert check_alpha_hypotheses(rebuilt) and check_order_preservation(rebuilt)
    assert len(built) == 2


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(order_families())
def test_order_relation_matches_less_than(fam):
    n = len(fam.members)
    pairs = {(i, j) for i in range(n) for j in range(n) if less_than(fam, i, j)}
    closure = brute_closure(n, pairs)
    rel = order_relation(fam)
    assert fam.below.tolist() == [
        [(i, j) in pairs for j in range(n)] for i in range(n)]
    assert rel.pairs == pairs
    assert rel.closure == closure
    assert rel.is_transitive == (closure == pairs)
    assert rel.closure_antisymmetric == (
        not any((j, i) in closure for (i, j) in closure if i != j))
    assert transitive_reduction(rel) == brute_transitive_reduction(n, closure)


@st.composite
def relations(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    return n, frozenset(draw(st.sets(st.tuples(node, node), max_size=2 * n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(relations())
@example((4, frozenset({(0, 1), (1, 2), (0, 3)})))  # acyclic
@example((3, frozenset({(0, 1), (1, 0), (1, 2)})))  # a 2-cycle: x = i and x = j
@example((2, frozenset({(0, 0), (0, 1)})))  # a loop
def test_transitive_reduction_matches_set_oracle(rel):
    """The matrix reduction keeps the old set comprehension's answer on any
    relation, cycles included; it reads only the stored closure."""
    n, pairs = rel
    closure = brute_closure(n, pairs)
    reach = np.zeros((n, n), dtype=bool)
    for i, j in closure:
        reach[i, j] = True
    rel = OrderRelation(None, pairs, closure == pairs, True, closure, reach)
    assert transitive_reduction(rel) == brute_transitive_reduction(n, closure)
