"""The friendship relation between block designs.

Two designs on the same ground set are friends when the profile of each
against a single block of the other does not depend on which block was
chosen.  `are_friends` decides one pair with O(b1*b2) popcounts, walked in
the pieces of `profiles.profile_pieces`; it works for any ground set up to
64 points.

`friends_matrix` answers every pair of a family at once, and is the one
place that picks a kernel: pair by pair, or `constant_profiles`, which runs
k+1 transforms over the subset lattice per member (Bjorklund, Husfeldt,
Kaski, Koivisto, "Fourier meets Moebius", STOC 2007), many columns to one
numpy pass while a block of them fits CHUNK_CELLS, and reads off only
whether each profile is constant over each other member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import zip_longest
from math import comb
from typing import NamedTuple

import numpy as np

from . import blocks
from .blocks import full_mask, subset_sums
from .designs import BlockDesign, DesignError, full_design
from .profiles import (
    IntersectionProfile,
    profile_pieces,
    self_friend_case,
    theoretical_self_profile,
)


class ProfileMismatch(NamedTuple):
    """Two probe blocks of the partner design that give different profiles.

    side is 1 or 2: profiles of that design differ when probed by blocks
    i and j of the other design.
    """

    side: int
    i: int
    j: int


@dataclass(frozen=True)
class FriendshipVerdict:
    friends: bool
    profile_1_2: IntersectionProfile | None
    profile_2_1: IntersectionProfile | None
    witness: ProfileMismatch | None
    inputs_are_designs: tuple[bool, bool]
    theorem_case: str | None = None


def are_friends(d1: BlockDesign, d2: BlockDesign) -> FriendshipVerdict:
    """Decide friendship; d1 and d2 may be the same design.

    On success the two common profiles are returned.  On failure the witness
    names a pair of probe blocks whose profiles differ and which side failed:
    probe 0 and the first probe whose profile differs from it, side 1 first.
    Each side walks its probes with profile_pieces and stops at the first
    piece holding such a probe, so memory stays about one piece.
    Raw non-design families are accepted and flagged via inputs_are_designs.
    """
    if d1.v != d2.v:
        raise DesignError(f"ground sets differ: {d1.v} vs {d2.v}")
    flags = (d1.counts_as_design, d2.counts_as_design)
    common = []
    # side 1: d1 probed by each block of d2; side 2: d2 probed by each block of d1
    for side, (d, other) in enumerate(((d1, d2), (d2, d1)), start=1):
        first = None
        for lo, rows in profile_pieces(d, other.blocks):
            first = rows[0] if first is None else first
            differ = np.flatnonzero((rows != first).any(axis=1))
            if differ.size:
                witness = ProfileMismatch(side, 0, lo + int(differ[0]))
                return FriendshipVerdict(False, None, None, witness, flags)
        common.append(tuple(int(x) for x in first))
    p12 = IntersectionProfile(common[0], d2.k)
    p21 = IntersectionProfile(common[1], d1.k)
    return FriendshipVerdict(True, p12, p21, None, flags)


def _moment_dtype(b: int, k: int) -> type:
    """int32 when every moment of a b-block, block size k family fits in it:
    M_t <= b C(k, t) <= b C(k, k // 2), and so are the partial sums of the
    transforms, whose terms are non-negative."""
    return np.int32 if b * comb(k, k // 2) < 1 << 31 else np.int64


def constant_profiles(fams: list[BlockDesign]) -> np.ndarray:
    """Which profiles are constant, for every ordered pair of a family on at
    most 32 points.

    const[a, b] is true iff the profile of fams[a] is the same against every
    block of fams[b], so a and b are friends iff const[a, b] and const[b, a].

    For each family A, a superset sum gives f_A(T), the blocks of A
    containing T, and a ranked subset sum of f_A gives the binomial moments
    M_t(s) = sum over blocks a of C(|a & s|, t), for every subset s at once.
    The moments M_0..M_k map to the profile unit-triangularly, so A's
    profile is constant over B iff each M_t is.  The moments are exact in
    int64 (M_t <= b C(k, t) <= 2^v C(v, v/2) < 2^63 for v <= 32), and in
    int32, which halves the memory the transforms stream, whenever
    b C(k, k/2) < 2^31.

    The transforms run on blocks of CHUNK_CELLS >> v columns (one at
    least: 32 at v = 13, one from v = 18 on), each pass over all columns of
    a block at once: the indicators of that many members are one superset
    sum, and their ranked columns, f_A on the t-subsets for t = 1..k_A, a
    block at a time are one subset sum, gathered once at the blocks of
    every member.  A block boundary may fall inside a member's columns.  A
    block is int64 when any member in it needs int64.
    """
    v = fams[0].v
    n = len(fams)
    rank = np.bitwise_count(np.arange(1 << v, dtype=np.uint64))
    # of_rank[t] = the t-subsets, so a ranked column copies only their rows
    of_rank = np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])
    order = np.concatenate([d.blocks for d in fams])  # the blocks of each family in turn
    starts = np.cumsum([0] + [d.b for d in fams[:-1]])
    const = np.ones((n, n), dtype=bool)
    direct = [a for a in range(n) if fams[a].k > 0]
    width = max(1, blocks.CHUNK_CELLS >> v)
    for lo in range(0, len(direct), width):
        members = direct[lo : lo + width]
        dtype = np.result_type(*(_moment_dtype(fams[a].b, fams[a].k) for a in members))
        f = np.zeros((1 << v, len(members)), dtype=dtype)
        for col, a in enumerate(members):
            f[fams[a].blocks, col] = 1
        subset_sums(f, v, supersets=True)
        # ranked column (a, col, t): f_a, column col of f, on the t-subsets
        ranked = [(a, col, t) for col, a in enumerate(members) for t in range(1, fams[a].k + 1)]
        for first in range(0, len(ranked), width):
            chunk = ranked[first : first + width]
            g = np.zeros((1 << v, len(chunk)), dtype=dtype)
            for j, (_, col, t) in enumerate(chunk):
                g[of_rank[t], j] = f[of_rank[t], col]
            g = subset_sums(g, v)[order]  # row i: block i of the family order
            flat = np.minimum.reduceat(g, starts) == np.maximum.reduceat(g, starts)
            for j, (a, _, _) in enumerate(chunk):
                const[a] &= flat[:, j]
    return const


def _lattice_pays(fams: list[BlockDesign]) -> bool:
    """Whether friends_matrix runs the lattice kernel: on at most SWEEP_LIMIT
    points, when its 2^v cells times k+1 transforms per member are no more
    than the b_i b_j intersection cells of the pairs i <= j."""
    bs = [d.b for d in fams]
    pair_cells = (sum(bs) ** 2 + sum(b * b for b in bs)) // 2  # sum over i <= j
    v = fams[0].v
    return v <= blocks.SWEEP_LIMIT and (1 << v) * sum(d.k + 1 for d in fams) <= pair_cells


def friends_matrix(fams: list[BlockDesign]) -> np.ndarray:
    """Symmetric boolean matrix, true at (i, j) iff fams[i] and fams[j] are
    friends, diagonal included.

    A block x of size k meets the complement of a set y in k - |x & y|
    points, so complementing a member A reverses its profiles and every
    profile taken against its blocks: friends(A^c, B) = friends(A, B) for
    every B, A included.  The kernel _lattice_pays picks runs on one
    representative per member up to equality and complement, and each
    member takes its representative's row and column.
    """
    for d in fams:
        if d.v != fams[0].v:
            raise DesignError(f"ground sets differ: {fams[0].v} vs {d.v}")
    full = np.uint64(full_mask(fams[0].v))
    keys: dict[bytes, int] = {}  # sorted blocks -> index of its representative
    reps, rep = [], []
    for d in fams:
        key = np.sort(d.blocks).tobytes()
        if key not in keys:
            keys[key] = keys[np.sort(full ^ d.blocks).tobytes()] = len(reps)
            reps.append(d)
        rep.append(keys[key])
    if _lattice_pays(reps):
        const = constant_profiles(reps)
        matrix = const & const.T
    else:
        n = len(reps)
        matrix = np.ones((n, n), dtype=bool)
        for i in range(n):
            for j in range(i, n):
                matrix[i, j] = matrix[j, i] = are_friends(reps[i], reps[j]).friends
    return matrix[np.ix_(rep, rep)]


def check_count_identity(verdict: FriendshipVerdict, b1: int, b2: int) -> bool:
    """Verify b2 * phi(D1,D2) = b1 * phi(D2,D1), aligned by intersection size."""
    if not verdict.friends:
        raise DesignError("count identity only applies to friends")
    pairs = zip_longest(verdict.profile_1_2.z, verdict.profile_2_1.z, fillvalue=0)
    return all(b2 * a == b1 * c for a, c in pairs)


def complement_transfer(p: IntersectionProfile, k_d: int, v: int) -> IntersectionProfile:
    """Profile against the complemented partner: reverse the vector.

    A block of size k_d meets the complement of S in exactly k_d - |block & S|
    points, so the transfer is exact for every probe size.
    """
    if len(p.z) != k_d + 1:
        raise DesignError(f"profile length {len(p.z)} does not match block size {k_d}")
    return IntersectionProfile(tuple(reversed(p.z)), v - p.m)


def is_self_friend(d: BlockDesign, verify: bool = False) -> FriendshipVerdict:
    """Decide whether a design is friends with itself.

    When the parameters fall under a known structural case the forced profile
    is used directly; `verify=True` also runs the brute-force sweep and checks
    that the two agree.  The applicable case, if any, is recorded on the
    verdict even when brute force was used.
    """
    case = self_friend_case(d.params) if d.params else None
    if case is not None and not verify:
        p = theoretical_self_profile(d.params)
        flags = (d.counts_as_design, d.counts_as_design)
        return FriendshipVerdict(True, p, p, None, flags, theorem_case=case)
    verdict = are_friends(d, d)
    if case is not None:
        predicted = theoretical_self_profile(d.params)
        if not verdict.friends or verdict.profile_1_2 != predicted:
            raise AssertionError(
                f"structural case {case} predicts {predicted}, sweep found "
                f"{verdict.profile_1_2}"
            )
    return replace(verdict, theorem_case=case)


def transitivity_counterexample(d1: BlockDesign, d2: BlockDesign) -> bool:
    """True iff d1 and d2 are both friends with the (v-1)-subsets design but
    not with each other, exhibiting non-transitivity."""
    if d1.v != d2.v:
        raise DesignError(f"ground sets differ: {d1.v} vs {d2.v}")
    v = d1.v
    if d1.k >= v - 1 or d2.k >= v - 1:
        raise DesignError("both designs need block size below v-1")
    penultimate = full_design(v, v - 1)
    f1 = are_friends(d1, penultimate)
    f2 = are_friends(d2, penultimate)
    f12 = are_friends(d1, d2)
    return f1.friends and f2.friends and not f12.friends
