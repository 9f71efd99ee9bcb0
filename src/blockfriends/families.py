"""Friendly families: pairwise-friends designs on one ground set, with the
block-size partial order and its Hasse diagram.

The order puts D below E when D has the smaller block size and the common
profile phi(D, E) has a positive entry at index k_D, i.e. some block of E
contains a full block of D worth of points in every probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import as_mask, format_block, labels_from_mask, proper_submasks
from .designs import BlockDesign, DesignError
from .friendship import are_friends
from .profiles import IntersectionProfile


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

    def index_of(self, d: BlockDesign) -> int:
        return self.members.index(d)


def _canonical_key(d: BlockDesign):
    return (d.k, sorted(labels_from_mask(m) for m in d.blocks))


def build_family(designs) -> FriendlyFamily:
    """Verify pairwise friendship and return the family in canonical order.

    Members are sorted by block size, ties broken by their sorted block
    lists.  Degenerate members are allowed; raw non-design families are not.
    A failing pair raises NotFriendsError with the two member names and the
    probe witness; other bad input raises DesignError.
    """
    members = sorted(designs, key=_canonical_key)
    if not members:
        raise DesignError("a friendly family needs at least one member")
    v = members[0].v
    for d in members:
        if d.v != v:
            raise DesignError(f"ground sets differ: {v} vs {d.v}")
        if not d.counts_as_design:
            raise DesignError(f"{d.name or d!r} is not a validated design")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if members[i] == members[j]:
                raise DesignError(f"duplicate member {members[i].name or i}")
    profiles: dict[tuple[int, int], IntersectionProfile] = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            verdict = are_friends(members[i], members[j])
            if not verdict.friends:
                a = members[i].name or f"member-{i}"
                b = members[j].name or f"member-{j}"
                raise NotFriendsError(
                    f"{a} and {b} are not friends (witness {verdict.witness})"
                )
            profiles[(i, j)] = verdict.profile_1_2
            profiles[(j, i)] = verdict.profile_2_1
    return FriendlyFamily(v, tuple(members), profiles)


def less_than(f: FriendlyFamily, i: int, j: int) -> bool:
    """True iff member i sits strictly below member j in the family order."""
    n = len(f.members)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"member index out of range 0..{n - 1}")
    ki, kj = f.members[i].k, f.members[j].k
    if ki >= kj:
        return False
    return f.pair_profiles[(i, j)].z[ki] > 0


@dataclass(frozen=True)
class OrderRelation:
    family: FriendlyFamily
    pairs: frozenset  # of (i, j) with member i below member j
    is_transitive: bool
    closure_antisymmetric: bool
    closure: frozenset  # transitive closure of pairs


def order_relation(f: FriendlyFamily) -> OrderRelation:
    """All ordered pairs of the family order, with transitivity checked, not assumed."""
    n = len(f.members)
    pairs = frozenset(
        (i, j) for i in range(n) for j in range(n) if i != j and less_than(f, i, j)
    )
    reach = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        reach[i, j] = True
    for x in range(n):  # Warshall: admit x as an intermediate member
        reach |= np.outer(reach[:, x], reach[x])
    closure = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(reach)))
    antisymmetric = not any((j, i) in closure for (i, j) in closure if i != j)
    return OrderRelation(f, pairs, closure == pairs, antisymmetric, closure)


def partitions_power_set(v: int, designs) -> bool:
    """True iff the designs' blocks are pairwise disjoint and cover the power set of V."""
    seen: set[int] = set()
    total = 0
    for d in designs:
        for m in d.blocks:
            if m in seen:
                return False
            seen.add(m)
            total += 1
    return total == 1 << v


def check_alpha_hypotheses(f: FriendlyFamily) -> bool:
    """True iff the members' blocks are pairwise disjoint and cover the power set."""
    return partitions_power_set(f.v, f.members)


def _alpha_table(f: FriendlyFamily) -> dict[int, int]:
    return {m: i for i, d in enumerate(f.members) for m in d.blocks}


def alpha(f: FriendlyFamily, u) -> int:
    """Index of the unique member having u as a block."""
    if not check_alpha_hypotheses(f):
        raise DesignError("family blocks do not partition the power set")
    mask = as_mask(u, f.v)
    table = _alpha_table(f)
    if mask not in table:
        raise AssertionError(f"{format_block(mask)} not covered despite partition")
    return table[mask]


def check_order_preservation(f: FriendlyFamily) -> bool:
    """Exhaustively check that strict subset containment maps into the family order."""
    if not check_alpha_hypotheses(f):
        raise DesignError("family blocks do not partition the power set")
    table = _alpha_table(f)
    for y in range(1 << f.v):
        iy = table[y]
        for x in proper_submasks(y):
            ix = table[x]
            if ix != iy and not less_than(f, ix, iy):
                return False
    return True


def transitive_reduction(rel: OrderRelation) -> frozenset:
    """Covering pairs of the order: the transitive reduction of its closure."""
    n = len(rel.family.members)
    closure = rel.closure
    return frozenset(
        (i, j)
        for (i, j) in closure
        if not any((i, x) in closure and (x, j) in closure for x in range(n))
    )


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
        lines.append(f'  n{i} [label="{f.member_label(i)} {desc}"];')
    for (i, j) in covering:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
