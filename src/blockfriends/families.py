"""Friendly families: pairwise-friends designs on one ground set, with the
block-size partial order and its Hasse diagram.

The order puts D below E when D has the smaller block size and the common
profile phi(D, E) has a positive entry at index k_D, i.e. some block of E
contains a full block of D worth of points in every probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .blocks import _REVERSED_BYTES, CHUNK_CELLS, as_mask, subset_sums
from .designs import BlockDesign, DesignError
from .friendship import are_friends, friends_matrix
from .profiles import IntersectionProfile, intersection_sizes, profile_rows


class NotFriendsError(DesignError):
    """Two members of a would-be friendly family are not friends."""


@dataclass(frozen=True)
class FriendlyFamily:
    v: int
    members: tuple[BlockDesign, ...]
    pair_profiles: dict = field(repr=False)  # (i, j) -> phi(members[i], members[j])

    def member_label(self, i: int) -> str:
        d = self.members[i]
        return d.name or f"member-{i}"

    @cached_property
    def owner(self) -> np.ndarray | None:
        """power_set_owner of the members, built on first use."""
        return power_set_owner(self.v, self.members)

    @cached_property
    def below(self) -> np.ndarray:
        """below[i, j] is true iff member i sits strictly below member j:
        k_i < k_j and z_{k_i} of phi(members[i], members[j]) is positive."""
        ks = [d.k for d in self.members]
        n = len(ks)
        phi = self.pair_profiles
        return np.array(
            [[ks[i] < ks[j] and phi[(i, j)].z[ks[i]] > 0 for j in range(n)] for i in range(n)],
            dtype=bool,
        )


def _canonical_key(d: BlockDesign) -> tuple[int, bytes]:
    """Block size, then the sorted block label tuples, 8 bytes per block.

    Among same-size sets, A precedes B iff ~rev(A) < ~rev(B), where rev
    moves bit i to bit 63-i (label_rows); so the sorted ~rev masks, as
    big-endian bytes, compare as the sorted label tuples do.
    """
    blocks = np.ascontiguousarray(d.blocks, dtype="<u8")
    reversed_masks = _REVERSED_BYTES[blocks.view(np.uint8)].view(">u8")
    return (d.k, np.sort(~reversed_masks).astype(">u8").tobytes())


def _first_block_rows(firsts: np.ndarray, d: BlockDesign) -> np.ndarray:
    """Row j is the profile of d against firsts[j], counted in pieces of
    CHUNK_CELLS // len(firsts) blocks."""
    step = max(1, CHUNK_CELLS // len(firsts))
    return sum(
        profile_rows(intersection_sizes(firsts, d.blocks[lo : lo + step]), d.k)
        for lo in range(0, d.b, step)
    )


def build_family(designs) -> FriendlyFamily:
    """Verify pairwise friendship and return the family in canonical order.

    Members are sorted by block size, ties broken by their sorted block
    lists.  Degenerate members are allowed; raw non-design families are not.
    A failing pair raises NotFriendsError with the two member names and the
    probe witness; other bad input raises DesignError.

    friends_matrix decides every pair; only the first failing pair i < j
    goes to are_friends, for its witness.  Every stored profile
    phi(members[i], members[j]) is counted by the popcount kernel against
    the first block of members[j].
    """
    keyed = sorted(((_canonical_key(d), d) for d in designs), key=itemgetter(0))
    members = [d for _, d in keyed]
    if not members:
        raise DesignError("a friendly family needs at least one member")
    v = members[0].v
    for d in members:
        if d.v != v:
            raise DesignError(f"ground sets differ: {v} vs {d.v}")
        if not d.counts_as_design:
            raise DesignError(f"{d.name or d!r} is not a validated design")
    # equal members have equal keys, so after the sort they are neighbours
    for i, ((key, d), (next_key, _)) in enumerate(zip(keyed, keyed[1:])):
        if key == next_key:
            raise DesignError(f"duplicate member {d.name or i}")
    del keyed  # 8 B per block, not needed while friends_matrix runs
    n = len(members)
    failing = np.argwhere(np.triu(~friends_matrix(members), 1))
    if failing.size:
        i, j = failing[0].tolist()  # the first failing pair in row order
        witness = are_friends(members[i], members[j]).witness
        a = members[i].name or f"member-{i}"
        b = members[j].name or f"member-{j}"
        raise NotFriendsError(f"{a} and {b} are not friends (witness {witness})")
    firsts = np.array([d.blocks[0] for d in members])
    # rows[i][j] = the profile of members[i] against the first block of members[j]
    rows = [_first_block_rows(firsts, d).tolist() for d in members]
    profiles: dict[tuple[int, int], IntersectionProfile] = {}
    for i in range(n):
        for j in range(i + 1, n):
            profiles[(i, j)] = IntersectionProfile(tuple(rows[i][j]), members[j].k)
            profiles[(j, i)] = IntersectionProfile(tuple(rows[j][i]), members[i].k)
    return FriendlyFamily(v, tuple(members), profiles)


def less_than(f: FriendlyFamily, i: int, j: int) -> bool:
    """True iff member i sits strictly below member j in the family order."""
    n = len(f.members)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"member index out of range 0..{n - 1}")
    return bool(f.below[i, j])


def _pairs(m: np.ndarray) -> frozenset:
    return frozenset(zip(*(ix.tolist() for ix in np.nonzero(m))))


@dataclass(frozen=True)
class OrderRelation:
    family: FriendlyFamily
    pairs: frozenset  # of (i, j) with member i below member j
    is_transitive: bool
    closure_antisymmetric: bool
    closure: frozenset  # transitive closure of pairs
    reach: np.ndarray = field(repr=False, compare=False)  # closure as a boolean matrix


def order_relation(f: FriendlyFamily) -> OrderRelation:
    """All ordered pairs of the family order, with transitivity checked, not assumed."""
    below = f.below
    reach = below.copy()
    for x in range(len(reach)):  # Warshall: admit x as an intermediate member
        reach |= np.outer(reach[:, x], reach[x])
    antisymmetric = not (reach & reach.T & ~np.eye(len(reach), dtype=bool)).any()
    return OrderRelation(
        f,
        _pairs(below),
        bool((reach == below).all()),
        antisymmetric,
        _pairs(reach),
        reach,
    )


def power_set_owner(v: int, designs) -> np.ndarray | None:
    """The map alpha as an array: entry s is the index of the design having
    the subset s as a block, or None unless the blocks partition 2^V.

    The blocks partition 2^V iff there are 2^v of them and every subset has
    an owner.  The count is checked first, so a family that cannot partition
    the power set never allocates a 2^v array.
    """
    designs = tuple(designs)
    if sum(d.b for d in designs) != 1 << v:
        return None
    owner = np.full(1 << v, -1, dtype=np.int32)
    for i, d in enumerate(designs):
        owner[d.blocks] = i
    return None if (owner < 0).any() else owner


def check_alpha_hypotheses(f: FriendlyFamily) -> bool:
    """True iff the members' blocks are pairwise disjoint and cover the power set."""
    return f.owner is not None


def _owner(f: FriendlyFamily) -> np.ndarray:
    if f.owner is None:
        raise DesignError("family blocks do not partition the power set")
    return f.owner


def alpha(f: FriendlyFamily, u) -> int:
    """Index of the unique member having u as a block."""
    return int(_owner(f)[as_mask(u, f.v)])


def check_order_preservation(f: FriendlyFamily) -> bool:
    """Check that strict subset containment maps into the family order.

    Every (subset, proper subset) pair is covered, without visiting the 3^v
    pairs: an OR subset-sum over the lattice gives, for each y, the bitset
    below[y] of members alpha(x) over all x within y (8 members per byte).
    Dropping alpha(y) itself, below[y] must lie inside the members that are
    below alpha(y) in the family order.
    """
    owner = _owner(f)
    n = len(f.members)
    cells, byte = np.arange(owner.size), owner >> 3
    bit = np.left_shift(1, owner & 7).astype(np.uint8)
    below = np.zeros((owner.size, (n + 7) // 8), dtype=np.uint8)
    below[cells, byte] = bit
    subset_sums(below, f.v, np.bitwise_or)
    below[cells, byte] &= ~bit
    lower = np.packbits(f.below.T, axis=1, bitorder="little")
    return not (below & ~lower[owner]).any()


def transitive_reduction(rel: OrderRelation) -> frozenset:
    """Covering pairs of the order: the transitive reduction of its closure.

    A pair (i, j) of the closure is dropped when some x, i or j included,
    has (i, x) and (x, j) in the closure: a nonzero entry of reach @ reach.
    """
    reach = rel.reach.astype(np.int64)
    return _pairs(rel.reach & ~(reach @ reach).astype(bool))


def export_hasse(rel: OrderRelation) -> str:
    """DOT digraph of the covering relation, nodes labeled name (v,b,r,k,lambda)."""
    f = rel.family
    closure = rel.closure
    cycle = [(i, j) for (i, j) in closure if (j, i) in closure]
    if cycle:
        raise DesignError(f"relation has a cycle through pair {cycle[0]}")
    covering = sorted(transitive_reduction(rel))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, d in enumerate(f.members):
        if d.params is not None:
            p = d.params
            desc = f"({p.v},{p.b},{p.r},{p.k},{p.lam})"
        else:
            desc = "(degenerate)" if d.is_degenerate else "(raw family)"
        label = f"{f.member_label(i)} {desc}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')  # DOT string escapes
        lines.append(f'  n{i} [label="{label}"];')
    for (i, j) in covering:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
