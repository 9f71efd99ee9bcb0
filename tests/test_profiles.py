from itertools import combinations

import numpy as np
import pytest

from blockfriends import (
    DesignError,
    DesignParams,
    IntersectionProfile,
    check_moment_identities,
    complement_design,
    fano,
    fano_family_members,
    full_design,
    full_design_self_profile,
    full_mask,
    nine_point_design,
    non_fano_triples,
    penultimate_full_profiles,
    profile,
    self_friend_case,
    sts13_s1,
    sts13_s2,
    theoretical_self_profile,
)
import blockfriends.blocks as blocks_mod
from blockfriends.classify import classify_level
from blockfriends.profiles import intersection_sizes, profile_pieces, profile_rows
from oracle_util import brute_profile, labels


def test_profile_fano_against_five_set():
    p = profile(fano(), (1, 2, 3, 4, 5))
    assert p.display == (0, 1, 4, 2)
    assert p.z == (0, 1, 4, 2)
    assert p.m == 5


def test_profile_full_design_against_fano_block():
    p = profile(full_design(7, 5), (2, 3, 5))
    assert p.display == (0, 3, 12, 6)
    assert p.z == (0, 3, 12, 6, 0, 0)
    assert str(p) == "(0,3,12,6)"


def test_profile_empty_and_full_probe():
    for d in (fano(), nine_point_design(), sts13_s1(), full_design(6, 3)):
        pe = profile(d, ())
        assert pe.z[0] == d.b and sum(pe.z) == d.b
        assert pe.display == (d.b,)
        pv = profile(d, full_mask(d.v))
        assert pv.z[d.k] == d.b and sum(pv.z) == d.b


def test_profile_ground_mismatch():
    with pytest.raises(ValueError):
        profile(fano(), (1, 2, 8))


def test_profile_matches_oracle():
    d = sts13_s1()
    for probe in [(1, 2, 3, 4), (5, 9, 10), (1,), tuple(range(1, 14))]:
        assert profile(d, probe).z == brute_profile(labels(d), probe, 3)


def test_moment_identities_examples():
    assert check_moment_identities(
        IntersectionProfile((0, 1, 4, 2), 5), DesignParams(7, 7, 3, 3, 1))
    assert check_moment_identities(
        IntersectionProfile((0, 0, 0, 2, 9, 0, 1), 6), DesignParams(9, 12, 8, 6, 5))
    assert not check_moment_identities(
        IntersectionProfile((1, 1, 4, 1), 5), DesignParams(7, 7, 3, 3, 1))


def test_moment_identities_hold_for_real_profiles():
    designs = [fano(), nine_point_design(), sts13_s1(), full_design(7, 1)]
    for d in designs:
        for probe in combinations(range(1, d.v + 1), 3):
            assert check_moment_identities(profile(d, probe), d.params)


def test_theoretical_self_profile_cases():
    assert theoretical_self_profile(DesignParams(7, 7, 3, 3, 1)).z == (0, 6, 0, 1)
    assert theoretical_self_profile(DesignParams(13, 26, 6, 3, 1)).z == (10, 15, 0, 1)
    assert theoretical_self_profile(DesignParams(7, 7, 4, 4, 2)).z == (0, 0, 6, 0, 1)
    assert theoretical_self_profile(DesignParams(9, 12, 8, 6, 5)) is None
    assert self_friend_case(DesignParams(9, 12, 8, 6, 5)) is None
    assert self_friend_case(DesignParams(7, 7, 3, 3, 1)) == "lambda=1"
    assert self_friend_case(DesignParams(7, 28, 12, 3, 4)) == "k=3"
    assert self_friend_case(DesignParams(7, 7, 4, 4, 2)) == "symmetric"


def test_theoretical_profile_matches_every_block():
    for d in (fano(), sts13_s1(), sts13_s2(), non_fano_triples(),
              complement_design(fano())):
        want = theoretical_self_profile(d.params)
        assert want is not None
        for blk in d.block_labels():
            assert profile(d, blk) == want


def test_full_design_self_profile_examples():
    assert full_design_self_profile(7, 3).z == (4, 18, 12, 1)
    assert full_design_self_profile(4, 2).z == (1, 4, 1)
    assert sum(full_design_self_profile(7, 5).z) == 21
    with pytest.raises(DesignError):
        full_design_self_profile(7, 0)


def test_full_design_self_profile_matches_sweep_up_to_v_12():
    # outer intersection matrix recomputed here, independent of profile()
    for v in range(2, 13):
        for k in range(1, v):
            d = full_design(v, k)
            masks = np.array(d.blocks, dtype=np.uint64)
            inter = np.bitwise_count(masks[:, None] & masks[None, :])
            want = np.asarray(full_design_self_profile(v, k).z)
            for col in range(len(masks)):
                got = np.bincount(inter[:, col].astype(int), minlength=k + 1)
                assert (got == want).all()


def test_penultimate_profiles():
    zf, wf = penultimate_full_profiles(fano().params)
    assert zf.z == (0, 0, 3, 4) and zf.m == 6
    assert wf.z[2] == 3 and wf.z[3] == 4 and len(wf.z) == 7 and wf.m == 3
    zs, ws = penultimate_full_profiles(sts13_s1().params)
    assert zs.z == (0, 0, 6, 20)  # b - r = 20, not b - k = 23
    assert ws.z[2] == 3 and ws.z[3] == 10
    with pytest.raises(DesignError):
        penultimate_full_profiles(DesignParams(7, 7, 6, 6, 5))


def test_penultimate_matches_oracle():
    s1 = sts13_s1()
    twelve_sets = list(combinations(range(1, 14), 12))
    z_brutes = {brute_profile(labels(s1), s, 3) for s in twelve_sets}
    assert z_brutes == {penultimate_full_profiles(s1.params)[0].z}
    w_brutes = {brute_profile(twelve_sets, b, 12) for b in labels(s1)}
    assert w_brutes == {penultimate_full_profiles(s1.params)[1].z}


def test_display_trims_trailing_entries():
    p = IntersectionProfile((5, 2, 0, 0, 0, 0), 2)
    assert p.display == (5, 2, 0)
    assert str(p) == "(5,2,0)"


@pytest.mark.parametrize("n, b, k", [(0, 5, 3), (0, 1, 0), (1, 1, 0), (4, 6, 0),
                                     (3, 7, 1), (32, 1000, 6), (5, 3, 10)])
def test_profile_rows_equals_one_pass_per_size(n, b, k):
    sizes = np.random.default_rng(n * 1000 + b + k).integers(0, k + 1, (n, b), dtype=np.uint8)
    passes = np.stack([(sizes == j).sum(axis=1) for j in range(k + 1)], axis=1)
    rows = profile_rows(sizes, k)
    assert rows.shape == (n, k + 1) and rows.dtype == passes.dtype
    assert (rows == passes).all()


def test_profile_rows_of_no_probes():
    d = fano()
    rows = profile_rows(intersection_sizes([], d.blocks), d.k)
    assert rows.shape == (0, d.k + 1)


@pytest.mark.parametrize("per_piece", [1, 2, 3])
def test_profile_pieces_join_to_one_piece(monkeypatch, per_piece):
    """Pieces of one to three probes, each starting where the last ended and
    the last one partial when the count is not a multiple, join to the rows
    of one piece: every fano_family member against every member's blocks,
    and the largest STS(13) S1 level-5 class against the parent's blocks
    and back."""
    parent = sts13_s1()
    cls = max(classify_level(parent, 5), key=lambda c: len(c.members)).to_family("c")
    members = list(fano_family_members())
    pairs = [(d, e.blocks) for d in members for e in members]
    pairs += [(parent, cls.blocks), (cls, parent.blocks)]
    for d, probes in pairs:
        whole = profile_rows(intersection_sizes(probes, d.blocks), d.k)
        monkeypatch.setattr(blocks_mod, "CHUNK_CELLS", per_piece * d.b)
        pieces = list(profile_pieces(d, probes))
        assert [lo for lo, _ in pieces] == list(range(0, len(probes), per_piece))
        assert np.array_equal(np.concatenate([rows for _, rows in pieces]), whole)
