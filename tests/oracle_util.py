"""Independent brute-force reference implementations for the tests.

Everything here works on plain label tuples with frozensets and itertools,
deliberately not sharing code paths with the package (which uses bitmasks
and numpy).  Expected values in the tests were frozen from these oracles.
"""

from collections import Counter
from itertools import combinations


def brute_profile(blocks, probe, k):
    """Profile of a block family against a probe set, as a length-(k+1) tuple."""
    z = [0] * (k + 1)
    p = frozenset(probe)
    for blk in blocks:
        z[len(p & frozenset(blk))] += 1
    return tuple(z)


def brute_detect(blocks, v):
    """(v,b,r,k,lam) if the family is a design, else None.  k=1 gives lam=0."""
    bs = [frozenset(b) for b in blocks]
    assert len(set(bs)) == len(bs)
    ks = {len(b) for b in bs}
    if len(ks) != 1:
        return None
    k = ks.pop()
    if k == 0:
        return None
    rc = Counter(x for b in bs for x in b)
    rs = {rc.get(x, 0) for x in range(1, v + 1)}
    if len(rs) != 1:
        return None
    r = rs.pop()
    if k == 1:
        return (v, len(bs), r, 1, 0)
    lc = Counter(p for b in bs for p in combinations(sorted(b), 2))
    ls = {lc.get(p, 0) for p in combinations(range(1, v + 1), 2)}
    if len(ls) != 1:
        return None
    return (v, len(bs), r, k, ls.pop())


def brute_friends(blocks1, k1, blocks2, k2):
    """(friends?, phi(1,2), phi(2,1)); the profiles are None when not constant."""
    p12 = {brute_profile(blocks1, b, k1) for b in blocks2}
    p21 = {brute_profile(blocks2, b, k2) for b in blocks1}
    ok = len(p12) == 1 and len(p21) == 1
    return ok, (p12.pop() if len(p12) == 1 else None), (p21.pop() if len(p21) == 1 else None)


def brute_classify(blocks, k, v, n):
    """signature -> sorted member tuples, for all n-subsets of {1..v}."""
    groups = {}
    for s in combinations(range(1, v + 1), n):
        groups.setdefault(brute_profile(blocks, s, k), []).append(s)
    return groups


def labels(design):
    """Blocks of a package design as label tuples (boundary conversion only)."""
    return design.block_labels()


def brute_order_preservation(v, members, order):
    """True iff every proper subset x of every y has owner(x) == owner(y) or
    (owner(x), owner(y)) in `order`, walking all 3^v such pairs.

    `members` lists each member's blocks as label tuples; together they must
    partition the subsets of {1..v}.  `order` is a set of index pairs (i, j)
    meaning member i is below member j.
    """
    owner = {frozenset(blk): i for i, blocks in enumerate(members) for blk in blocks}
    assert len(owner) == 2 ** v
    for n in range(v + 1):
        for y in combinations(range(1, v + 1), n):
            iy = owner[frozenset(y)]
            for m in range(n):
                for x in combinations(y, m):
                    ix = owner[frozenset(x)]
                    if ix != iy and (ix, iy) not in order:
                        return False
    return True


def brute_closure(n, pairs):
    """Transitive closure of a relation on range(n), by adding (i, l) for
    every (i, j), (j, l) until nothing changes."""
    closure = set(pairs)
    while True:
        extra = {(i, l) for (i, j) in closure for (k, l) in closure if j == k} - closure
        if not extra:
            return frozenset(closure)
        closure |= extra


def brute_transitive_reduction(n, closure):
    """Pairs of `closure` with no x in range(n), i and j included, such that
    (i, x) and (x, j) are both in `closure`."""
    return frozenset(
        (i, j)
        for (i, j) in closure
        if not any((i, x) in closure and (x, j) in closure for x in range(n))
    )
