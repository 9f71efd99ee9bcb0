"""Independent brute-force reference implementations for the tests.

Everything here works on plain label tuples with frozensets and itertools,
deliberately not sharing code paths with the package (which uses bitmasks
and numpy).  Expected values in the tests were frozen from these oracles.
The one exception is pairwise_friends_matrix, the pair-by-pair reference
for the package's friendship matrix: it calls are_friends, which is checked
against brute_friends in its own right.
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


def pairwise_friends_matrix(fams):
    """Symmetric friendship matrix as nested lists, one are_friends call per
    unordered pair, diagonal included."""
    from blockfriends import are_friends

    m = len(fams)
    matrix = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            matrix[i][j] = matrix[j][i] = are_friends(fams[i], fams[j]).friends
    return matrix


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


class BruteParseError(ValueError):
    """A design-file error at a 1-based line, as the line-by-line parser reports it."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _brute_mask(labels, v):
    """Mask of one block line; labels above v or above 64 and repeated
    labels raise, in the order the labels are read."""
    bound = min(v, 64)
    mask = 0
    for x in labels:
        if not 1 <= x <= bound:
            raise ValueError(f"element label {x} out of range 1..{bound}")
        if mask >> (x - 1) & 1:
            raise ValueError(f"repeated element label {x}")
        mask |= 1 << (x - 1)
    return mask


def brute_parse(text):
    """The design-file parser read one line at a time: (v, masks), or
    BruteParseError at the first bad line.  Header, integer and positivity
    errors are found in one pass, then the ground-set size is fixed (the
    largest label when v= is absent), then range, repeat and duplicate
    errors in a second pass."""
    v_declared = None
    raw = []
    seen_data = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("v="):
            if seen_data or v_declared is not None:
                raise BruteParseError(lineno, "v= must be the first data line")
            try:
                v_declared = int(stripped[2:])
            except ValueError:
                raise BruteParseError(lineno, f"bad ground-set size {stripped!r}") from None
            if not 1 <= v_declared <= 64:
                raise BruteParseError(lineno, f"v={v_declared} outside 1..64")
            continue
        seen_data = True
        try:
            labels = tuple(int(tok) for tok in stripped.split())
        except ValueError:
            raise BruteParseError(lineno, f"non-integer token in {stripped!r}") from None
        if any(x < 1 for x in labels):
            raise BruteParseError(lineno, "labels must be positive")
        raw.append((lineno, labels))
    if not raw:
        raise BruteParseError(1, "no blocks in file")
    v = v_declared if v_declared is not None else max(max(labels) for _, labels in raw)
    masks = []
    seen = set()
    for lineno, labels in raw:
        try:
            m = _brute_mask(labels, v)
        except ValueError as exc:
            raise BruteParseError(lineno, str(exc)) from None
        if m in seen:
            raise BruteParseError(
                lineno, "duplicate block " + " ".join(str(x) for x in sorted(labels))
            )
        seen.add(m)
        masks.append(m)
    return v, masks


def brute_labels(v, mask):
    """Sorted labels of a mask on {1..v}, one bit test per element."""
    return tuple(x for x in range(1, v + 1) if mask >> (x - 1) & 1)


def brute_render(v, masks, comment=""):
    """The design-file text: comment lines, v=, then the label tuples
    sorted lexicographically."""
    lines = [f"# {part}" for part in comment.splitlines()] + [f"v={v}"]
    rows = sorted(brute_labels(v, m) for m in masks)
    return "\n".join(lines + [" ".join(map(str, row)) for row in rows]) + "\n"


def brute_family_order(designs):
    """(members, error) for a would-be friendly family: the members sorted
    by block size, then by their sorted block label tuples; error is the
    duplicate-member message for the first i with a later member equal to
    member i (pairwise ==), or None."""
    members = sorted(
        designs, key=lambda d: (d.k, sorted(brute_labels(d.v, m) for m in d.blocks))
    )
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if members[i] == members[j]:
                return members, f"duplicate member {members[i].name or i}"
    return members, None


class BruteBlockError(ValueError):
    """An error of the block list as a whole (ground-set size, duplicate
    block, no blocks), which the package raises as DesignError."""


def brute_blocks(blocks, v):
    """The masks of a block list, checked one block at a time in input
    order: an int is a mask, anything else an iterable of labels.  The
    first block out of range, with a bad or repeated label, or equal to an
    earlier block raises there; a block of the wrong type raises TypeError
    when it is reached."""
    if not 1 <= v <= 64:
        raise BruteBlockError(f"ground set size {v} outside 1..64")
    masks = []
    for blk in blocks:
        if isinstance(blk, int):
            if blk < 0 or blk >= 1 << v:
                raise ValueError(f"mask {blk:#x} not within ground set of size {v}")
            m = blk
        else:
            m = _brute_mask(blk, v)
        if m in masks:
            raise BruteBlockError(
                "duplicate block {" + ",".join(map(str, brute_labels(v, m))) + "}"
            )
        masks.append(m)
    if not masks:
        raise BruteBlockError("a block family needs at least one block")
    return tuple(masks)
