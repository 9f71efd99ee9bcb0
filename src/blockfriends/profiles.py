"""Intersection profiles: how the blocks of a design meet a probe set.

The profile of a design D against a set M is the vector (z_0, ..., z_k)
where z_j counts the blocks of D meeting M in exactly j elements.  The
vector always sums to the number of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from . import blocks
from .blocks import as_mask
from .designs import BlockDesign, DesignError, DesignParams


@dataclass(frozen=True)
class IntersectionProfile:
    """Counts z[j] of blocks meeting the probe in j points; m is the probe size.

    z always has length k+1 for the profiled design's block size k.  Entries
    beyond index min(k, m) are necessarily zero and are suppressed when the
    profile is printed.
    """

    z: tuple[int, ...]
    m: int

    @property
    def k(self) -> int:
        return len(self.z) - 1

    @property
    def display(self) -> tuple[int, ...]:
        return self.z[: min(self.k, self.m) + 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.display) + ")"


def intersection_sizes(probes, blocks) -> np.ndarray:
    """uint8 matrix whose entry (i, j) is the popcount of probes[i] & blocks[j]."""
    p = np.asarray(probes, dtype=np.uint64)
    b = np.asarray(blocks, dtype=np.uint64)
    return np.bitwise_count(p[:, None] & b[None, :])


def profile_rows(sizes: np.ndarray, k: int) -> np.ndarray:
    """Row i holds (z_0, ..., z_k): how many entries of sizes[i] equal each j.

    With sizes = intersection_sizes(probes, blocks) and k the block size,
    row i is the profile of the blocks against probes[i].  Every entry must
    lie in 0..k: one bincount counts an entry s of row i at cell i*(k+1) + s.
    """
    n = len(sizes)
    cells = np.arange(n)[:, None] * (k + 1) + sizes
    return np.bincount(cells.ravel(), minlength=n * (k + 1)).reshape(n, k + 1)


def profile_pieces(d: BlockDesign, probes) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, rows) for consecutive pieces of max(1, CHUNK_CELLS // d.b)
    probes, so each piece holds about CHUNK_CELLS intersection cells: row i
    of rows is the profile of d against probes[lo + i]."""
    step = max(1, blocks.CHUNK_CELLS // d.b)
    for lo in range(0, len(probes), step):
        yield lo, profile_rows(intersection_sizes(probes[lo : lo + step], d.blocks), d.k)


def profile(d: BlockDesign, probe) -> IntersectionProfile:
    """Count the blocks of d by the size of their intersection with the probe set."""
    m = as_mask(probe, d.v)
    z = profile_rows(intersection_sizes([m], d.blocks), d.k)[0]
    return IntersectionProfile(tuple(int(x) for x in z), m.bit_count())


def check_moment_identities(p: IntersectionProfile, params: DesignParams) -> bool:
    """True iff the three counting identities hold for the given parameters.

    sum z_j = b,  sum j*z_j = r*m,  sum j^2*z_j = m*(lambda*m - lambda + r).
    """
    m = p.m
    s0 = sum(p.z)
    s1 = sum(j * zj for j, zj in enumerate(p.z))
    s2 = sum(j * j * zj for j, zj in enumerate(p.z))
    return (
        s0 == params.b
        and s1 == params.r * m
        and s2 == m * (params.lam * m - params.lam + params.r)
    )


def self_friend_case(params: DesignParams) -> str | None:
    """Which structural condition, if any, forces a constant self-profile."""
    if params.lam == 1:
        return "lambda=1"
    if params.k == 3:
        return "k=3"
    if params.b == params.v:
        return "symmetric"
    return None


def theoretical_self_profile(params: DesignParams) -> IntersectionProfile | None:
    """Forced profile of a design against any one of its own blocks, when known.

    Covered cases: lambda = 1 (no repeated pair outside the chosen block),
    k = 3 (the three moment identities plus z_3 = 1 pin the vector), and
    symmetric designs b = v (distinct blocks always meet in lambda points).
    Returns None when no case applies and a brute-force sweep is needed.
    """
    v, b, r, k, lam = params
    case = self_friend_case(params)
    if case is None:
        return None
    z = [0] * (k + 1)
    if case == "lambda=1":
        z[k] = 1
        if k >= 1:
            z[1] = k * (r - 1)
        z[0] = b - 1 - k * (r - 1)
    elif case == "k=3":
        z[3] = 1
        z[2] = 3 * (lam - 1)
        z[1] = 3 * (r - 2 * lam + 1)
        z[0] = b - 3 * r + 3 * lam - 1
    else:  # symmetric
        z[k] = 1
        z[lam] += b - 1
    return IntersectionProfile(tuple(z), k)


def full_design_self_profile(v: int, k: int) -> IntersectionProfile:
    """Profile of the all-k-subsets design against any one of its blocks."""
    if not 1 <= k <= v - 1:
        raise DesignError(f"block size {k} outside 1..{v - 1}")
    z = tuple(comb(k, i) * comb(v - k, k - i) for i in range(k + 1))
    return IntersectionProfile(z, k)


def penultimate_full_profiles(
    params: DesignParams,
) -> tuple[IntersectionProfile, IntersectionProfile]:
    """Profiles pairing a design with the full design of block size v-1.

    Returns (phi(D, any (v-1)-set), phi(full design, any block of D)).
    Removing one point from V meets a block of D in k-1 or k points, so the
    first profile is z_{k-1} = r, z_k = b - r; the second is w_{k-1} = k,
    w_k = v - k.  The z_k value is forced by the first-moment identity:
    r*(k-1) + k*z_k = r*(v-1).
    """
    v, b, r, k, lam = params
    if k >= v - 1:
        raise DesignError(f"needs block size below v-1, got k={k}, v={v}")
    z = [0] * (k + 1)
    z[k - 1] = r
    z[k] = b - r
    w = [0] * v
    w[k - 1] = k
    w[k] = v - k
    return IntersectionProfile(tuple(z), v - 1), IntersectionProfile(tuple(w), k)
