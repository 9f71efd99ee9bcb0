"""Power-set classification against a parent design.

Every n-subset of the ground set is mapped to its intersection profile
against the parent; subsets sharing a profile form a class.  Ranging n over
0..v partitions the whole power set.  Levels above v/2 are derived from
their complements (a subset and its complement have reversed profiles),
which halves the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .blocks import full_mask, level_masks
from .designs import BlockDesign, DesignError, DesignParams, detect_design
from .families import partitions_power_set
from .friendship import are_friends
from .profiles import IntersectionProfile, intersection_sizes, profile_rows

SWEEP_LIMIT = 24
# intersection-matrix cells per chunk of classify_level (about 2 MB of uint64)
CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class SubsetClass:
    """All n-subsets sharing one intersection profile against the parent."""

    v: int
    n: int
    signature: IntersectionProfile
    size: int
    members: tuple[int, ...] | None  # lexicographic by label tuple; None if dropped
    params: DesignParams | None
    witness: str

    def to_family(self, name: str = "") -> BlockDesign:
        if self.members is None:
            raise DesignError("class members were not retained")
        return BlockDesign(self.v, self.members, self.params, name)


@dataclass(frozen=True)
class Subdivision:
    parent: BlockDesign
    levels: tuple[tuple[SubsetClass, ...], ...]  # index = subset size n

    @property
    def v(self) -> int:
        return self.parent.v

    def all_classes(self) -> list[tuple[int, int, SubsetClass]]:
        return [
            (n, j, cls)
            for n, level in enumerate(self.levels)
            for j, cls in enumerate(level)
        ]


def _key_weights(b: int, k: int) -> np.ndarray:
    """Weights that turn a row of intersection sizes into an exact sort key.

    Row w packs the profile entries z_{wc}..z_{wc+c-1} in base b+1, the lowest
    index most significant, where c is the most base-(b+1) digits an int64
    holds.  Summing W[w, sizes] over a row's blocks gives word w of its key;
    the words compared in turn order rows exactly as their signatures
    (z_0..z_k).  Small parents need one word; PG(2,4) packs all six entries
    into 22^6.
    """
    c = 1
    while c <= k and (b + 1) ** (c + 1) <= 2**63:
        c += 1
    w = np.zeros(((k + c) // c, k + 1), dtype=np.int64)
    for t in range(k + 1):
        w[t // c, t] = (b + 1) ** (c - 1 - t % c)
    return w


def _annotate(v: int, members: tuple[int, ...]) -> tuple[DesignParams | None, str]:
    if len(members) == 1 and members[0] == 0:
        return None, "the empty set is not a block of any design"
    return detect_design(members, v)


def classify_level(
    parent: BlockDesign, n: int, keep_members: bool = True
) -> tuple[SubsetClass, ...]:
    """Group all n-subsets of the ground set by profile against the parent.

    Classes come back sorted by signature; members within a class keep the
    lexicographic enumeration order.  The intersection matrix is built
    CHUNK_CELLS cells at a time, so its memory does not grow with the level.
    Levels of more than 2^SWEEP_LIMIT subsets are refused before any work.
    """
    v = parent.v
    if not 0 <= n <= v:
        raise DesignError(f"subset size {n} outside 0..{v}")
    if comb(v, n) > 1 << SWEEP_LIMIT:
        raise DesignError(
            f"level n={n} has C({v},{n}) = {comb(v, n)} subsets, "
            f"above the sweep limit 2^{SWEEP_LIMIT}"
        )
    subs = level_masks(v, n)
    weights = _key_weights(parent.b, parent.k)
    blocks = np.asarray(parent.blocks, dtype=np.uint64)
    keys = np.empty((len(weights), subs.size), dtype=np.int64)
    step = max(1, CHUNK_CELLS // parent.b)
    for lo in range(0, subs.size, step):
        sizes = intersection_sizes(subs[lo : lo + step], blocks)
        keys[:, lo : lo + step] = weights[:, sizes].sum(axis=2)
    order = np.lexsort(keys[::-1])  # stable: members stay in enumeration order
    ordered = keys[:, order]
    starts = np.flatnonzero(
        np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
    )
    ends = np.r_[starts[1:], subs.size]
    firsts = subs[order[starts]]
    sigs = profile_rows(intersection_sizes(firsts, blocks), parent.k)
    classes = []
    for sig_row, lo, hi in zip(sigs.tolist(), starts.tolist(), ends.tolist()):
        sig = IntersectionProfile(tuple(sig_row), n)
        if keep_members:
            members = tuple(subs[order[lo:hi]].tolist())
            params, witness = _annotate(v, members)
        else:
            members, (params, witness) = None, (None, "members not retained")
        classes.append(SubsetClass(v, n, sig, hi - lo, members, params, witness))
    return tuple(classes)


def _derive_complement_level(
    source: tuple[SubsetClass, ...], v: int
) -> tuple[SubsetClass, ...]:
    """Level v-n from level n: each class complemented, profile reversed.

    Complementing reverses the label-tuple order of same-size sets: A precedes
    B iff min(A ^ B) lies in A, and complementing both leaves A ^ B unchanged.
    So the complemented members, read backwards, are in enumeration order.
    """
    fm = full_mask(v)
    derived = []
    for cls in source:
        sig = IntersectionProfile(tuple(reversed(cls.signature.z)), v - cls.n)
        members, params, witness = None, cls.params, cls.witness
        if cls.members is not None:
            members = tuple(fm ^ m for m in reversed(cls.members))
            params, witness = _annotate(v, members)
        derived.append(
            SubsetClass(v, v - cls.n, sig, cls.size, members, params, witness)
        )
    return tuple(sorted(derived, key=lambda c: c.signature.z))


def classify_all(
    parent: BlockDesign, threads: int | None = None, keep_members: bool = True
) -> Subdivision:
    """Classify every level 0..v: levels up to v/2 directly, the rest by
    complement.

    `threads` is accepted for compatibility and has no effect on the work
    done or the results.
    """
    v = parent.v
    if v > SWEEP_LIMIT:
        raise DesignError(
            f"v={v} exceeds sweep limit {SWEEP_LIMIT}; classify levels one at a time"
        )
    levels = [classify_level(parent, n, keep_members) for n in range(v // 2 + 1)]
    for n in range(v // 2 + 1, v + 1):
        levels.append(_derive_complement_level(levels[v - n], v))
    return Subdivision(parent, tuple(levels))


def _friends_matrix(fams: list[BlockDesign]) -> list[list[bool]]:
    """Symmetric friendship matrix, one are_friends call per unordered pair."""
    m = len(fams)
    matrix = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            matrix[i][j] = matrix[j][i] = are_friends(fams[i], fams[j]).friends
    return matrix


@dataclass(frozen=True)
class SubdivisionReport:
    """Design and friendship verdicts over every class of a subdivision."""

    subdivision: Subdivision
    class_keys: tuple[tuple[int, int], ...]  # (n, j) in flat order
    is_design: tuple[bool, ...]  # degenerate levels 0 and v count by convention
    self_friend: tuple[bool, ...]
    friends_matrix: tuple[tuple[bool, ...], ...]
    level_friendly: tuple[bool, ...]
    family_friendly: bool
    alpha_ok: bool
    conjecture: bool

    def key_index(self, n: int, j: int) -> int:
        return self.class_keys.index((n, j))


def analyze(sub: Subdivision) -> SubdivisionReport:
    """Check which classes are designs and whether they form a friendly family.

    Non-design classes still take part in the friendship sweep as raw
    families.  The headline verdict is true when every class is a design
    (degenerate levels by convention) and all distinct pairs are friends.
    """
    flat = sub.all_classes()
    v = sub.v
    fams = []
    keys = []
    designs_flags = []
    for n, j, cls in flat:
        if cls.members is None:
            raise DesignError("analysis needs retained class members")
        fams.append(cls.to_family(name=f"class-{n}-{j}"))
        keys.append((n, j))
        designs_flags.append(cls.params is not None or n == 0 or n == v)

    m = len(fams)
    matrix = _friends_matrix(fams)
    self_friend = tuple(matrix[i][i] for i in range(m))
    level_friendly = []
    for n in range(v + 1):
        idx = [t for t, (nn, _) in enumerate(keys) if nn == n]
        level_friendly.append(
            all(matrix[a][b] for x, a in enumerate(idx) for b in idx[x + 1 :])
        )
    family_friendly = all(
        matrix[i][j] for i in range(m) for j in range(i + 1, m)
    )
    alpha_ok = partitions_power_set(v, fams)
    conjecture = all(designs_flags) and family_friendly
    return SubdivisionReport(
        sub,
        tuple(keys),
        tuple(designs_flags),
        self_friend,
        tuple(tuple(row) for row in matrix),
        tuple(level_friendly),
        family_friendly,
        alpha_ok,
        conjecture,
    )


@dataclass(frozen=True)
class LevelReport:
    """Friendship verdicts over the classes of one level, in class order."""

    self_friend: tuple[bool, ...]
    friends_with_parent: tuple[bool, ...]
    level_friendly: bool  # every two distinct classes are friends


def analyze_level(
    parent: BlockDesign, classes: tuple[SubsetClass, ...]
) -> LevelReport:
    """Check each class of one level against itself, the parent and the others."""
    fams = [c.to_family(f"class-{c.n}-{j + 1}") for j, c in enumerate(classes)]
    m = len(fams)
    matrix = _friends_matrix(fams)
    return LevelReport(
        tuple(matrix[j][j] for j in range(m)),
        tuple(are_friends(f, parent).friends for f in fams),
        all(matrix[i][j] for i in range(m) for j in range(i + 1, m)),
    )


def _two_classes(
    parent: BlockDesign,
    n: int,
    target: frozenset[int],
    what: str,
    predicted: tuple[DesignParams, DesignParams],
) -> tuple[SubsetClass, SubsetClass]:
    """The two classes of level n, the one whose members are `target` first.

    `what` names `target` in the error message; the classes' params must equal
    `predicted`, in the same order.
    """
    classes = classify_level(parent, n)
    if len(classes) != 2:
        raise AssertionError(f"expected 2 classes at level {n}, found {len(classes)}")
    if frozenset(classes[0].members) == target:
        c1, c2 = classes
    elif frozenset(classes[1].members) == target:
        c2, c1 = classes
    else:
        raise AssertionError(f"neither level-{n} class matches {what}")
    if (c1.params, c2.params) != predicted:
        raise AssertionError(
            f"level-{n} params {c1.params}, {c2.params} != predicted "
            f"{predicted[0]}, {predicted[1]}"
        )
    return c1, c2


def theorem_k3_classes(
    parent: BlockDesign,
) -> tuple[tuple[SubsetClass, DesignParams], tuple[SubsetClass, DesignParams]]:
    """Closed-form level-3 classes for a parent with block size 3.

    The triples split into the parent's own blocks and everything else; the
    second class is a design with b' = C(v,3)-b, r' = C(v-1,2)-r, and
    lambda' = v-2-lambda.  Verified against the exhaustive sweep before
    returning.
    """
    p = parent.params
    if p is None or p.k != 3:
        raise DesignError("needs a validated parent with block size 3")
    v = p.v
    predicted2 = DesignParams(
        v, comb(v, 3) - p.b, comb(v - 1, 2) - p.r, 3, v - 2 - p.lam
    )
    c1, c2 = _two_classes(
        parent, 3, frozenset(parent.blocks), "the parent blocks", (p, predicted2)
    )
    if not are_friends(parent, c2.to_family("non-blocks-3")).friends:
        raise AssertionError("non-block triples are not friends with the parent")
    return (c1, p), (c2, predicted2)


def theorem_k4_classes(
    parent: BlockDesign,
) -> tuple[tuple[SubsetClass, DesignParams], tuple[SubsetClass, DesignParams]]:
    """Closed-form level-4 classes for a parent with block size 3, lambda 1.

    Quadruples containing a parent block form one class (b(v-3) of them);
    the rest form the other.  Checks the predicted parameters, friendship
    with the parent, and the anchor entries z_3 = v-3 and z_3 = 1 of the
    two cross profiles.
    """
    p = parent.params
    if p is None or p.k != 3 or p.lam != 1:
        raise DesignError("needs a validated parent with block size 3 and lambda 1")
    v = p.v
    extensions = frozenset(
        blk | (1 << x)
        for blk in parent.blocks
        for x in range(v)
        if not (blk >> x) & 1
    )
    if len(extensions) != p.b * (v - 3):
        raise AssertionError("block extensions are not all distinct")
    r1 = p.r * (v - 3) + (p.b - p.r)
    lam1 = v - 3 + 2 * (p.r - 1)
    predicted1 = DesignParams(v, p.b * (v - 3), r1, 4, lam1)
    predicted2 = DesignParams(
        v, comb(v, 4) - predicted1.b, comb(v - 1, 3) - r1, 4, comb(v - 2, 2) - lam1
    )
    c1, c2 = _two_classes(
        parent, 4, extensions, "the block extensions", (predicted1, predicted2)
    )
    v1 = are_friends(c1.to_family("contains-a-block-4"), parent)
    v2 = are_friends(c2.to_family("avoids-blocks-4"), parent)
    if not (v1.friends and v2.friends):
        raise AssertionError("level-4 classes are not friends with the parent")
    if v1.profile_1_2.z[3] != v - 3 or v1.profile_2_1.z[3] != 1:
        raise AssertionError("anchor entries of the cross profiles are off")
    return (c1, predicted1), (c2, predicted2)
