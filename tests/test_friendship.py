import pytest

import blockfriends.friendship as friendship_mod
from blockfriends import (
    DesignError,
    are_friends,
    check_count_identity,
    classify_level,
    complement_design,
    complement_transfer,
    empty_design,
    fano,
    friends_matrix,
    full_design,
    is_self_friend,
    nine_point_design,
    non_fano_triples,
    sts13_s1,
    transitivity_counterexample,
    whole_design,
)
from oracle_util import brute_friends, labels


def level5_families(parent):
    return [c.to_family(f"lv5-{i}") for i, c in enumerate(classify_level(parent, 5))]


def test_fano_full5_friends():
    v = are_friends(fano(), full_design(7, 5))
    assert v.friends
    assert v.profile_1_2.display == (0, 1, 4, 2)
    assert v.profile_2_1.display == (0, 3, 12, 6)
    assert v.witness is None
    assert v.inputs_are_designs == (True, True)


def test_symmetry():
    pairs = [
        (fano(), full_design(7, 5)),
        (sts13_s1(), full_design(13, 12)),
        (fano(), non_fano_triples()),
    ]
    fams = level5_families(sts13_s1())
    pairs.append((fams[0], fams[1]))
    for a, b in pairs:
        vab, vba = are_friends(a, b), are_friends(b, a)
        assert vab.friends == vba.friends
        if vab.friends:
            assert vab.profile_1_2 == vba.profile_2_1
            assert vab.profile_2_1 == vba.profile_1_2


def test_nine_point_self_friend():
    v = is_self_friend(nine_point_design(), verify=True)
    assert v.friends
    assert v.profile_1_2.display == (0, 0, 0, 2, 9, 0, 1)
    assert v.theorem_case is None


def test_level5_classes_not_self_friends_but_friend_parent():
    s1 = sts13_s1()
    fams = level5_families(s1)
    for fam in fams:
        verdict = are_friends(fam, fam)
        assert not verdict.friends
        assert verdict.witness is not None
        assert are_friends(fam, s1).friends
    assert not are_friends(fams[0], fams[1]).friends


def test_witness_identifies_differing_probes():
    fam = level5_families(sts13_s1())[0]
    verdict = are_friends(fam, fam)
    w = verdict.witness
    probes = fam.block_labels()
    side = labels(fam)
    k = fam.k
    from oracle_util import brute_profile

    assert brute_profile(side, probes[w.i], k) != brute_profile(side, probes[w.j], k)


def test_ground_set_mismatch():
    with pytest.raises(DesignError):
        are_friends(fano(), full_design(8, 3))


@pytest.mark.parametrize("lattice", [True, False])
def test_friends_matrix_refuses_mixed_ground_sets(monkeypatch, lattice):
    """Both kernels refuse members on different ground sets, whichever
    member comes first."""
    monkeypatch.setattr(friendship_mod, "_lattice_pays", lambda fams: lattice)
    small, large = [full_design(7, 3), full_design(7, 4)], [full_design(8, 5)]
    for fams in (small + large, large + small):
        with pytest.raises(DesignError, match="ground sets differ"):
            friends_matrix(fams)


def test_degenerate_conventions():
    for d in (fano(), sts13_s1(), nine_point_design()):
        ve = are_friends(d, empty_design(d.v))
        assert ve.friends
        assert ve.profile_1_2.display == (d.b,)
        vw = are_friends(d, whole_design(d.v))
        assert vw.friends
        assert vw.profile_1_2.z[d.k] == d.b


def test_raw_family_flagged():
    cls6 = classify_level(sts13_s1(), 6)[0].to_family("six")
    v = are_friends(cls6, sts13_s1())
    assert v.inputs_are_designs == (False, True)


def test_count_identity_examples():
    f, d5 = fano(), full_design(7, 5)
    v = are_friends(f, d5)
    assert check_count_identity(v, f.b, d5.b)
    assert tuple(d5.b * x for x in v.profile_1_2.z) == (0, 21, 84, 42)

    s = is_self_friend(nine_point_design())
    assert check_count_identity(s, 12, 12)

    s1 = sts13_s1()
    lv4 = classify_level(s1, 4)
    d14 = next(c for c in lv4 if c.signature.z == (7, 15, 3, 1)).to_family("quads")
    v2 = are_friends(s1, d14)
    assert v2.profile_1_2.z == (7, 15, 3, 1)
    assert v2.profile_2_1.z == (70, 150, 30, 10, 0)
    assert check_count_identity(v2, s1.b, d14.b)


def test_count_identity_requires_friends():
    fams = level5_families(sts13_s1())
    verdict = are_friends(fams[0], fams[1])
    with pytest.raises(DesignError):
        check_count_identity(verdict, fams[0].b, fams[1].b)


def test_complement_transfer_examples():
    f = fano()
    cof = complement_design(f)
    self_profile = are_friends(f, f).profile_1_2
    transferred = complement_transfer(self_profile, f.k, f.v)
    assert transferred.z == (1, 0, 6, 0)
    assert are_friends(f, cof).profile_1_2 == transferred
    twice = complement_transfer(transferred, f.k, f.v)
    assert twice == self_profile

    d5 = full_design(7, 5)
    p = are_friends(d5, f).profile_1_2
    got = are_friends(d5, cof).profile_1_2
    assert got == complement_transfer(p, d5.k, 7)
    assert got.z == (0, 0, 6, 12, 3, 0)


def test_complement_transfer_vs_oracle_across_catalog():
    f = fano()
    partners = [full_design(7, 2), full_design(7, 5), non_fano_triples()]
    for x in partners:
        v1 = are_friends(x, f)
        v2 = are_friends(x, complement_design(f))
        assert v2.profile_1_2 == complement_transfer(v1.profile_1_2, x.k, 7)
        ok, p, _ = brute_friends(labels(x), x.k, labels(complement_design(f)), 4)
        assert ok and p == v2.profile_1_2.z


def test_complement_transfer_length_check():
    p = are_friends(fano(), fano()).profile_1_2
    with pytest.raises(DesignError):
        complement_transfer(p, 5, 7)


def test_self_friend_shortcut_matches_sweep():
    for d in (fano(), sts13_s1(), non_fano_triples(), complement_design(fano()),
              full_design(6, 3)):
        fast = is_self_friend(d)
        slow = are_friends(d, d)
        assert fast.friends and slow.friends
        assert fast.profile_1_2 == slow.profile_1_2
        assert fast.theorem_case is not None
        checked = is_self_friend(d, verify=True)
        assert checked.profile_1_2 == slow.profile_1_2


def test_self_friend_case_labels():
    assert is_self_friend(fano()).theorem_case == "lambda=1"
    assert is_self_friend(non_fano_triples()).theorem_case == "k=3"
    assert is_self_friend(complement_design(fano())).theorem_case == "symmetric"


def test_transitivity_counterexample():
    fams = level5_families(sts13_s1())
    assert transitivity_counterexample(fams[0], fams[1])
    assert not transitivity_counterexample(fano(), non_fano_triples())
    assert not transitivity_counterexample(fano(), fano())
    with pytest.raises(DesignError):
        transitivity_counterexample(fano(), full_design(7, 6))
