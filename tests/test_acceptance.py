"""Acceptance criteria, one test per criterion, timed and integer-exact.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from importlib import resources
from math import comb

from blockfriends import (
    analyze,
    are_friends,
    build_family,
    check_count_identity,
    check_moment_identities,
    classify_all,
    classify_level,
    complement_design,
    complement_transfer,
    DesignParams,
    fano,
    fano_family_members,
    full_design,
    full_mask,
    is_self_friend,
    load_field_tables,
    nine_point_design,
    order_relation,
    penultimate_full_profiles,
    prime_field,
    profile,
    projective_plane,
    sts13_s1,
    sts13_s2,
    transitive_reduction,
)


def report(n, label, elapsed, bound=None):
    within = "" if bound is None else f", bound {bound}s"
    print(f"PASS criterion {n}: {label} ({elapsed:.3f}s{within})")


def test_criterion_1_fano_full5_friendship():
    f, d5 = fano(), full_design(7, 5)
    t0 = time.perf_counter()
    verdict = are_friends(f, d5)
    dt = time.perf_counter() - t0
    assert verdict.friends
    assert verdict.profile_2_1.display == (0, 3, 12, 6)
    assert verdict.profile_1_2.display == (0, 1, 4, 2)
    assert dt < 0.1
    report(1, "fano and the full 5-subset design are friends", dt, 0.1)


def test_criterion_2_nine_point_self_friend():
    nine = nine_point_design()
    t0 = time.perf_counter()
    verdict = is_self_friend(nine, verify=True)
    dt = time.perf_counter() - t0
    assert verdict.friends
    assert verdict.profile_1_2.display == (0, 0, 0, 2, 9, 0, 1)
    assert verdict.theorem_case is None
    assert dt < 0.1
    report(2, "(9,12,8,6,5) design is friends with itself", dt, 0.1)


EXPECTED_COVERING = {
    ("full-0", "full-1"), ("full-1", "full-2"), ("full-2", "fano"),
    ("full-2", "non-fano-triples"), ("fano", "non-fano-quads"),
    ("non-fano-triples", "fano-complement"), ("non-fano-triples", "non-fano-quads"),
    ("fano-complement", "full-5"), ("non-fano-quads", "full-5"),
    ("full-5", "full-6"), ("full-6", "full-7"),
}


def test_criterion_3_fano_full_classification():
    t0 = time.perf_counter()
    sub = classify_all(fano())
    rep = analyze(sub)
    classes = [cls for level in sub.levels for cls in level]
    fams = [cls.to_family() for cls in classes]
    fam = build_family(fams)
    covering = transitive_reduction(order_relation(fam))
    dt = time.perf_counter() - t0

    assert len(classes) == 10
    assert sorted(c.size for c in classes) == sorted([1, 7, 21, 7, 28, 7, 28, 21, 7, 1])
    assert all(rep.is_design)
    assert rep.family_friendly
    assert rep.alpha_ok

    named = {d: name for d, name in zip(fano_family_members(), [
        "full-0", "full-1", "full-2", "fano", "non-fano-triples",
        "fano-complement", "non-fano-quads", "full-5", "full-6", "full-7"])}
    assert set(fam.members) == set(named)
    got = {(named[fam.members[i]], named[fam.members[j]]) for (i, j) in covering}
    assert got == EXPECTED_COVERING
    assert dt < 1.0
    report(3, "fano power-set family, verdicts and covering relation", dt, 1.0)


def test_criterion_4_pg23_conjecture():
    pg3 = projective_plane(prime_field(3))
    t0 = time.perf_counter()
    rep = analyze(classify_all(pg3))
    dt = time.perf_counter() - t0
    assert all(rep.is_design)
    assert rep.family_friendly
    assert rep.conjecture
    assert dt < 5.0
    report(4, "pg(2,3): every class a design, family friendly (2^13 subsets)", dt, 5.0)


S1_LEVELS = {
    3: {(10, 15, 0, 1): 26, (11, 12, 3, 0): 260},
    4: {(7, 15, 3, 1): 260, (8, 12, 6, 0): 455},
    5: {(5, 13, 7, 1): 780, (4, 16, 4, 2): 195, (6, 10, 10, 0): 312},
    6: {(2, 15, 6, 3): 208, (1, 18, 3, 4): 13, (4, 9, 12, 1): 468,
        (3, 12, 9, 2): 988, (5, 6, 15, 0): 39},
}
S2_LEVEL6 = {(2, 15, 6, 3): 228, (1, 18, 3, 4): 8, (4, 9, 12, 1): 488,
             (3, 12, 9, 2): 958, (5, 6, 15, 0): 34}


def test_criterion_5_sts13_regression():
    s1, s2 = sts13_s1(), sts13_s2()
    t0 = time.perf_counter()
    for parent in (s1, s2):
        levels = {n: classify_level(parent, n) for n in (3, 4, 5, 6)}
        for n in (3, 4, 5):
            assert {c.signature.display: c.size
                    for c in levels[n]} == S1_LEVELS[n]
        want6 = S1_LEVELS[6] if parent is s1 else S2_LEVEL6
        assert {c.signature.display: c.size for c in levels[6]} == want6

        for n in (3, 4):
            fams = [c.to_family() for c in levels[n]]
            assert all(c.params is not None for c in levels[n])
            assert all(
                are_friends(fams[i], fams[j]).friends
                for i in range(len(fams)) for j in range(i + 1, len(fams)))
        fams5 = [c.to_family() for c in levels[5]]
        assert all(c.params is not None for c in levels[5])
        assert all(are_friends(g, parent).friends for g in fams5)
        assert not any(are_friends(g, g).friends for g in fams5)
        assert not any(are_friends(fams5[i], fams5[j]).friends
                       for i in range(3) for j in range(i + 1, 3))
        assert all(c.params is None for c in levels[6])
    dt = time.perf_counter() - t0
    assert dt < 2.0
    report(5, "sts13 levels 3-6 for both systems, all verdicts", dt, 2.0)


def test_criterion_6_theorem_closed_forms():
    from blockfriends import theorem_k3_classes, theorem_k4_classes

    t0 = time.perf_counter()
    for parent in (fano(), sts13_s1(), sts13_s2()):
        (c1, p1), (c2, p2) = theorem_k3_classes(parent)
        lv3 = classify_level(parent, 3)
        assert {frozenset(c.members) for c in lv3} == {
            frozenset(c1.members), frozenset(c2.members)}
        assert {c.params for c in lv3} == {p1, p2}
        (d1, q1), (d2, q2) = theorem_k4_classes(parent)
        lv4 = classify_level(parent, 4)
        assert {frozenset(c.members) for c in lv4} == {
            frozenset(d1.members), frozenset(d2.members)}
        assert {c.params for c in lv4} == {q1, q2}
    (c1, p1), (c2, p2) = theorem_k3_classes(sts13_s1())
    assert p2 == DesignParams(13, 260, 60, 3, 10)
    (d1, q1), (d2, q2) = theorem_k4_classes(sts13_s1())
    assert q1 == DesignParams(13, 260, 80, 4, 20)
    dt = time.perf_counter() - t0
    report(6, "closed-form level 3/4 classes equal the exhaustive sweep", dt)


def test_criterion_7_property_batteries():
    rng = random.Random(20260811)
    s1 = sts13_s1()
    s1_classes = {n: [c.to_family(f"c{n}-{i}")
                      for i, c in enumerate(classify_level(s1, n))]
                  for n in (3, 4, 5)}
    pool = [fano(), nine_point_design(), s1, sts13_s2(),
            complement_design(fano()), projective_plane(prime_field(2)),
            projective_plane(prime_field(3)),
            full_design(6, 3), full_design(8, 2), full_design(9, 4),
            *s1_classes[3], *s1_classes[4], *s1_classes[5]]
    valid = [d for d in pool if d.params is not None]
    t0 = time.perf_counter()

    for _ in range(200):  # moment identities
        d = rng.choice(valid)
        probe = rng.randrange(0, full_mask(d.v) + 1)
        assert check_moment_identities(profile(d, probe), d.params)

    friend_pairs = (
        [(a, b) for i, a in enumerate(fano_family_members())
         for b in fano_family_members()[i + 1:]]
        + [(s1, c) for c in s1_classes[3] + s1_classes[4] + s1_classes[5]]
        + [(full_design(8, j), full_design(8, k))
           for j in range(1, 7) for k in range(j + 1, 8)]
    )
    for _ in range(200):  # count identity on friend pairs
        a, b = rng.choice(friend_pairs)
        verdict = are_friends(a, b)
        assert verdict.friends and check_count_identity(verdict, a.b, b.b)

    compl = [p for p in friend_pairs if 0 < p[1].k < p[1].v]
    for _ in range(200):  # complement transfer against the sweep
        a, d1 = rng.choice(compl)
        before = are_friends(a, d1)
        after = are_friends(a, complement_design(d1))
        assert after.profile_1_2 == complement_transfer(
            before.profile_1_2, a.k, a.v)

    cases = [d for d in valid if d.params.lam == 1 or d.params.k == 3
             or d.params.b == d.params.v]
    for _ in range(200):  # forced self-profiles against the sweep
        d = rng.choice(cases)
        fast, slow = is_self_friend(d), are_friends(d, d)
        assert fast.friends and slow.friends
        assert fast.profile_1_2 == slow.profile_1_2

    small = [d for d in valid if d.k < d.v - 1]
    for _ in range(200):  # profiles against the (v-1)-subsets design
        d = rng.choice(small)
        z, w = penultimate_full_profiles(d.params)
        verdict = are_friends(d, full_design(d.v, d.v - 1))
        assert verdict.profile_1_2 == z and verdict.profile_2_1 == w
    z, _ = penultimate_full_profiles(s1.params)
    assert z.z == (0, 0, 6, 20)  # b-r = 20, not b-k = 23

    mixed = friend_pairs + [(s1_classes[5][0], s1_classes[5][1]),
                            (s1_classes[5][2], s1_classes[5][2]),
                            (fano(), full_design(7, 3))]
    for _ in range(200):  # symmetry
        a, b = rng.choice(mixed)
        ab, ba = are_friends(a, b), are_friends(b, a)
        assert ab.friends == ba.friends
        if ab.friends:
            assert ab.profile_1_2 == ba.profile_2_1

    parents = [fano(), projective_plane(prime_field(2)), full_design(6, 3)]
    base = {d.name: classify_all(d, threads=1) for d in parents}
    for _ in range(200):  # determinism across thread counts
        parent = rng.choice(parents)
        sub = classify_all(parent, threads=rng.randrange(1, 7))
        assert [
            (c.signature, c.size, c.members.tolist()) for lv in sub.levels for c in lv
        ] == [(c.signature, c.size, c.members.tolist())
              for lv in base[parent.name].levels for c in lv]

    dt = time.perf_counter() - t0
    report(7, "seven randomized batteries, 200 cases each", dt)


def test_criterion_8_pg24_stretch():
    text = resources.files("blockfriends.data").joinpath("gf4.tables").read_text()
    pg4 = projective_plane(load_field_tables(text))
    assert pg4.params == DesignParams(21, 21, 5, 5, 1)

    def counts():
        sub = classify_all(pg4, keep_members=False)
        assert sum(c.size for lv in sub.levels for c in lv) == 2 ** 21
        return [(n, c.signature.z, c.size)
                for n, lv in enumerate(sub.levels) for c in lv]

    t0 = time.perf_counter()
    first = counts()
    t1 = time.perf_counter()
    second = counts()
    t2 = time.perf_counter()
    assert first == second
    assert sum(comb(21, n) for n in range(22)) == 2 ** 21
    print(f"INFO criterion 8 (stretch, not gated): pg(2,4) full sweep twice, "
          f"runs {t1 - t0:.1f}s and {t2 - t1:.1f}s, per-level counts stable")
    report(8, "pg(2,4) sweep over 2^21 subsets completes and is stable", t2 - t0)
