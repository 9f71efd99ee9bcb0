"""Projective planes PG(2,q) over an explicit finite field."""

from __future__ import annotations

from itertools import product

from .designs import BlockDesign, DesignParams, check_ground, design
from .fields import FieldTables


def _normalized_points(q: int) -> list[tuple[int, int, int]]:
    # one representative per projective class: first nonzero coordinate is
    # 1; product yields the triples in lexicographic order
    return [t for t in product(range(q), repeat=3) if next(filter(None, t), 0) == 1]


def projective_plane(f: FieldTables) -> BlockDesign:
    """The plane on q^2+q+1 points whose blocks are the q^2+q+1 lines.

    Points are the normalized nonzero coordinate triples in lexicographic
    order, labeled 1 upward; a line is the set of points orthogonal to a
    normalized coefficient triple.  The result always validates with
    parameters (q^2+q+1, q^2+q+1, q+1, q+1, 1).  A plane on more than
    MAX_GROUND points is refused before any of it is built.
    """
    q, add, mul = f.q, f.add, f.mul
    n = q * q + q + 1
    check_ground(n)
    pts = _normalized_points(q)
    blocks = []
    for coeff in pts:
        line = []
        for label, p in enumerate(pts, start=1):  # labels ascend, so line does
            s = 0
            for c, x in zip(coeff, p):
                s = add[s][mul[c][x]]
            if s == 0:
                line.append(label)
        blocks.append(tuple(line))
    blocks.sort()
    d = design(len(pts), blocks, name=f"pg2-{q}")
    expected = DesignParams(n, n, q + 1, q + 1, 1)
    if d.params != expected:
        raise AssertionError(f"plane parameters {d.params} != {expected}")
    return d
