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

from . import blocks
from .blocks import full_mask, level_chunks
from .designs import (
    BlockDesign, DesignError, DesignParams, complement_params, detect_params, frozen_masks
)
from .families import power_set_owner
from .friendship import are_friends, complement_transfer, friends_matrix
from .profiles import IntersectionProfile


@dataclass(frozen=True, eq=False)
class SubsetClass:
    """All n-subsets sharing one intersection profile against the parent.
    Classes compare by identity: their members are an array."""

    v: int
    n: int
    signature: IntersectionProfile
    size: int
    members: np.ndarray | None  # read-only uint64, lexicographic by label tuple; None if dropped
    params: DesignParams | None
    witness: str

    def __post_init__(self):
        if self.members is not None:
            object.__setattr__(self, "members", frozen_masks(self.members))

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
    """Weights that turn a profile row into an exact sort key.

    Row w packs the profile entries z_{wc}..z_{wc+c-1} in base b+1, the lowest
    index most significant, where c is the most base-(b+1) digits an int64
    holds.  Word w of a row's key is W[w] · (z_0..z_k); the words compared
    in turn order rows exactly as their signatures.  Small parents need one
    word; PG(2,4) packs all six entries into 22^6.  No entry passes b, so
    z_t is word W.argmax(0)[t] = t // c of the key // W.max(0)[t] % (b+1).
    """
    c = 1
    while c <= k and (b + 1) ** (c + 1) <= 2**63:
        c += 1
    w = np.zeros(((k + c) // c, k + 1), dtype=np.int64)
    for t in range(k + 1):
        w[t // c, t] = (b + 1) ** (c - 1 - t % c)
    return w


def _packed_keys(parent: BlockDesign):
    """keys(subs): the sort key of each subset against the parent, as a
    (key words x len(subs)) int64 array equal to W @ profile_rows(...).T
    - b W[:, :1] for W = _key_weights(b, k), read from two tables by
    broadword arithmetic on packed fields (Knuth, TAOCP 4A, 7.1.3).

    Count table: block j's intersection count takes a field of
    f = k.bit_length() bits, 64 // f fields to a uint64 word.  Per s-bit
    slice of the subset mask and per slice value, it holds the packed counts
    of that slice with every block, so a subset's whole intersection vector
    is ceil(v/s) reads added together, laid out word-major.  Counts never
    exceed k, so fields never carry.  s is 8, or less when the table would
    pass CHUNK_CELLS cells.
    Key table: per 12-bit slice of packed counts (12 // f whole fields),
    the slice's share of the key, W[:, c] - W[:, 0] for each field of count
    c.  So every block adds W[:, c_j] - W[:, 0] and every padding field 0:
    the key is the profile key minus a constant, with the same order and
    the same classes, from a few reads per subset.
    Every read is an np.take gather along the subsets' axis, indexed by the
    masked slice or field values as int64.
    """
    v, b, k = parent.v, parent.b, parent.k
    f = k.bit_length() or 1
    per_word = 64 // f
    words = -(-b // per_word)
    s = 8
    while s > 1 and -(-v // s) * words << s > blocks.CHUNK_CELLS:
        s -= 1
    offsets = np.arange(0, v, s, dtype=np.uint64)
    smask = np.uint64((1 << s) - 1)
    fields = np.zeros(words * per_word, dtype=np.uint64)
    fields[:b] = parent.blocks
    fields = fields.reshape(words, per_word)
    values = np.arange(1 << s, dtype=np.uint8)
    counts = np.zeros((offsets.size, words, 1 << s), dtype=np.uint64)
    for i in range(per_word):
        piece = ((fields[:, i] >> offsets[:, None]) & smask).astype(np.uint8)
        counts |= np.bitwise_count(piece[:, :, None] & values).astype(np.uint64) << np.uint64(f * i)

    g = max(1, 12 // f) * f  # bits per key-table read
    weights = _key_weights(b, k)
    slots = np.arange(1 << g, dtype=np.uint64)[:, None] >> np.arange(0, g, f, dtype=np.uint64)
    slots = np.minimum(slots & np.uint64((1 << f) - 1), k)  # field values above k never occur
    key_table = (weights - weights[:, :1])[:, slots].sum(axis=2)
    gmask = np.uint64((1 << g) - 1)
    shifts = np.arange(g, f * per_word, g, dtype=np.uint64)

    def keys(subs: np.ndarray) -> np.ndarray:
        # masked values are below 2^s or 2^g, so the int64 views are exact;
        # packed is (words, subsets), shares (key words, words, subsets)
        packed = np.take(counts[0], (subs & smask).view(np.int64), axis=1)
        for p in range(1, offsets.size):
            packed += np.take(counts[p], ((subs >> offsets[p]) & smask).view(np.int64), axis=1)
        shares = np.take(key_table, (packed & gmask).view(np.int64), axis=1)
        for shift in shifts:
            shares += np.take(key_table, ((packed >> shift) & gmask).view(np.int64), axis=1)
        return shares.sum(axis=1)

    return keys


def _sweep_limit(keep_members: bool) -> tuple[int, str]:
    """The bound that applies to a sweep, and its name in refusals."""
    if keep_members:
        return blocks.SWEEP_LIMIT, "sweep limit"
    return blocks.COUNTS_ONLY_LIMIT, "counts-only sweep limit"


def classify_level(
    parent: BlockDesign, n: int, keep_members: bool = True, *, _keys=None
) -> tuple[SubsetClass, ...]:
    """Group all n-subsets of the ground set by profile against the parent.

    Classes come back sorted by signature; members within a class keep the
    lexicographic enumeration order.  The level is walked in lexicographic
    pieces of CHUNK_CELLS // b subsets (level_chunks).  Each subset's key is
    its profile packed into int64 words, read from the parent's count and
    key tables (_packed_keys: broadword arithmetic on packed count fields,
    Knuth, TAOCP 4A, 7.1.3), which `_keys` passes in when classify_all has
    built them for every level.  Each piece is grouped by one stable sort of
    the keys and merged into a table holding, per class, its key and count,
    plus its members when they are kept; the keys' digits give the signatures.
    Counts-only memory is therefore one piece plus the tables, whatever the
    level size; with members kept, the members are all that grows.  Levels
    of more than 2^SWEEP_LIMIT subsets, or 2^COUNTS_ONLY_LIMIT counts-only,
    are refused before any work.
    """
    v = parent.v
    if not 0 <= n <= v:
        raise DesignError(f"subset size {n} outside 0..{v}")
    limit, name = _sweep_limit(keep_members)
    if comb(v, n) > 1 << limit:
        raise DesignError(
            f"level n={n} has C({v},{n}) = {comb(v, n)} subsets, above the {name} 2^{limit}"
        )
    packed_keys = _keys or _packed_keys(parent)
    table: dict[tuple[int, ...], list] = {}  # key words -> [count, member pieces]
    for subs in level_chunks(v, n, max(1, blocks.CHUNK_CELLS // parent.b)):
        keys = packed_keys(subs)
        order = np.lexsort(keys[::-1])  # stable: members stay in enumeration order
        ordered = keys[:, order]
        starts = np.flatnonzero(
            np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
        )
        ends = np.r_[starts[1:], subs.size]
        if keep_members:
            subs = subs[order]
        for key, lo, hi in zip(
            map(tuple, ordered[:, starts].T.tolist()), starts.tolist(), ends.tolist()
        ):
            entry = table.get(key)
            if entry is None:
                entry = table[key] = [0, []]
            entry[0] += hi - lo
            if keep_members:
                entry[1].append(subs[lo:hi])
    found = sorted(table)  # key order is signature order
    b, w = parent.b, _key_weights(parent.b, parent.k)
    words = np.array(found, dtype=np.int64).T + b * w[:, :1]  # back to W @ z (_packed_keys)
    sigs = words[w.argmax(0)] // w.max(0)[:, None] % (b + 1)  # z_t: digit t % c of word t // c
    classes = []
    for sig_row, (size, members) in zip(sigs.T.tolist(), map(table.get, found)):
        sig = IntersectionProfile(tuple(sig_row), n)
        if keep_members:
            members = np.concatenate(members)
            params, witness = detect_params(members, v)
        else:
            members, (params, witness) = None, (None, "members not retained")
        classes.append(SubsetClass(v, n, sig, size, members, params, witness))
    return tuple(classes)


def _derive_complement_level(
    source: tuple[SubsetClass, ...], v: int
) -> tuple[SubsetClass, ...]:
    """Level v-n from level n: each class complemented, profile reversed.

    Complementing reverses the label-tuple order of same-size sets: A precedes
    B iff min(A ^ B) lies in A, and complementing both leaves A ^ B unchanged.
    So the complemented members, read backwards, are in enumeration order.
    """
    fm = np.uint64(full_mask(v))
    derived = []
    for cls in source:
        sig = complement_transfer(cls.signature, cls.signature.k, v)
        members, params, witness = None, cls.params, cls.witness
        if cls.members is not None:
            members = fm ^ cls.members[::-1]
            params, witness = (
                (complement_params(cls.params), "") if cls.params
                else detect_params(members, v)
            )
        derived.append(
            SubsetClass(v, v - cls.n, sig, cls.size, members, params, witness)
        )
    return tuple(sorted(derived, key=lambda c: c.signature.z))


def classify_all(
    parent: BlockDesign, threads: int | None = None, keep_members: bool = True
) -> Subdivision:
    """Classify every level 0..v: levels up to v/2 directly, the rest by
    complement.

    The parent's count and key tables (_packed_keys) are built once and
    serve every swept level.  `threads` is accepted for compatibility and
    has no effect on the work done or the results.  Parents on more than
    SWEEP_LIMIT points, or COUNTS_ONLY_LIMIT counts-only, are refused before
    any work.
    """
    v = parent.v
    limit, name = _sweep_limit(keep_members)
    if v > limit:
        raise DesignError(f"v={v} exceeds {name} {limit}; classify levels one at a time")
    keys = _packed_keys(parent)
    levels = [classify_level(parent, n, keep_members, _keys=keys) for n in range(v // 2 + 1)]
    for n in range(v // 2 + 1, v + 1):
        levels.append(_derive_complement_level(levels[v - n], v))
    return Subdivision(parent, tuple(levels))


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
        designs_flags.append(fams[-1].counts_as_design)

    matrix = friends_matrix(fams)
    unfriendly = np.triu(~matrix, 1)  # distinct pairs that are not friends
    level_of = np.array([n for n, _ in keys])
    family_friendly = not unfriendly.any()
    return SubdivisionReport(
        sub,
        tuple(keys),
        tuple(designs_flags),
        tuple(matrix.diagonal().tolist()),
        tuple(map(tuple, matrix.tolist())),
        tuple(not unfriendly[np.ix_(level_of == n, level_of == n)].any() for n in range(v + 1)),
        family_friendly,
        power_set_owner(v, fams) is not None,
        all(designs_flags) and family_friendly,
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
    """Check each class of one level against itself, the parent and the
    others, all from one friendship matrix of the classes and the parent."""
    fams = [c.to_family(f"class-{c.n}-{j + 1}") for j, c in enumerate(classes)]
    m = len(fams)
    matrix = friends_matrix(fams + [parent])
    return LevelReport(
        tuple(matrix.diagonal()[:m].tolist()),
        tuple(matrix[:m, m].tolist()),
        not np.triu(~matrix[:m, :m], 1).any(),
    )


ClassPair = tuple[SubsetClass, DesignParams]


def closed_form_classes(parent: BlockDesign, n: int) -> tuple[ClassPair, ...]:
    """Closed-form classes at level n = 3 of a parent with k = 3 or
    lambda = 1, and at level 4 of one with lambda = 1: (class, params)
    pairs, largest m first, empty classes left out, r' = b'n/v.

    A member's m is the most of its points in one block, the largest j with
    z_j > 0.  At most one block holds m >= 3 of its points, so m fixes z_3,
    z_4 and, by the moment identities, z_0..z_2: each m is one class.  Its
    lambda' counts members through a pair {x,y} in block B; every count
    below is the same for all pairs, so each class is a 2-design.
    Level 3, m = 3: for k = 3 the b blocks, lambda through {x,y}; for
    lambda = 1 the b C(k,3) triples in a block, k-2 through {x,y} (in B).
    So lambda' = lambda (k-2); the other triples through {x,y} have m = 2.
    Level 4, lambda = 1: an S(2,k,v), r = (v-1)/(k-1) (Colbourn & Dinitz,
    Handbook of Combinatorial Designs, 2nd ed., 2007).  m = 4: the b C(k,4)
    4-subsets of blocks, C(k-2,2) through {x,y}, all in B.  m = 3: a triple
    in a block plus a point off it, the triple unique (two would share two
    points, hence a block): b C(k,3) (v-k) members.  Through {x,y} the
    triple holds both, k-2 ways in B times v-k points off B, or just one,
    with two more points of one of its r-1 other blocks, which miss the
    other: lambda' = (k-2)(v-k) + 2 (r-1) C(k-1,2).  m = 2: the rest.
    Checked before returning: one classify_level sweep gives exactly these
    classes and params, each is friends with the parent, and for m >= 3 a
    parent block meets C(k,m) (v-k)^(n-m) members, and a member one parent
    block, in m points.
    """
    p = parent.params
    if p is None or n not in (3, 4) or (p.lam != 1 and (n, p.k) != (3, 3)):
        raise DesignError("needs level 3 of a validated parent with k = 3 or lambda = 1, "
                          "or level 4 of one with lambda = 1")
    v, b, r, k, lam = p
    top = {3: (b * comb(k, 3), lam * (k - 2))} if n == 3 else {
        4: (b * comb(k, 4), comb(k - 2, 2)),
        3: (b * comb(k, 3) * (v - k), (k - 2) * (v - k) + 2 * (r - 1) * comb(k - 1, 2)),
    }
    sizes, lams = zip(*top.values())
    top[2] = (comb(v, n) - sum(sizes), comb(v - 2, n - 2) - sum(lams))
    predicted = [(m, DesignParams(v, s, s * n // v, n, lm)) for m, (s, lm) in top.items() if s]
    classes = sorted(
        ((max(j for j, z in enumerate(c.signature.z) if z), c) for c in classify_level(parent, n)),
        key=lambda mc: -mc[0],
    )
    found = [(m, c.params) for m, c in classes]
    if found != predicted:
        raise AssertionError(f"level-{n} (m, params) {found} != predicted {predicted}")
    for m, cls in classes:
        verdict = are_friends(cls.to_family(f"level-{n}-m{m}"), parent)
        if not verdict.friends:
            raise AssertionError(f"level-{n} class m={m} is not friends with the parent")
        anchors = (verdict.profile_1_2.z[m], verdict.profile_2_1.z[m])
        if m >= 3 and anchors != (comb(k, m) * (v - k) ** (n - m), 1):
            raise AssertionError(f"anchor entries of the level-{n} cross profiles are off")
    return tuple((cls, params) for (_, cls), (_, params) in zip(classes, predicted))


def _k3_case(parent: BlockDesign, n: int) -> tuple[ClassPair, ClassPair]:
    if parent.params is None or parent.params.k != 3:
        raise DesignError("needs a validated parent with block size 3")
    pairs = closed_form_classes(parent, n)
    if len(pairs) != 2:
        raise AssertionError(f"expected 2 classes at level {n}, found {len(pairs)}")
    return pairs


def theorem_k3_classes(parent: BlockDesign) -> tuple[ClassPair, ClassPair]:
    """closed_form_classes at level 3, the k = 3 case: the parent's blocks,
    then the other triples, a design with lambda' = v-2-lambda."""
    return _k3_case(parent, 3)


def theorem_k4_classes(parent: BlockDesign) -> tuple[ClassPair, ClassPair]:
    """closed_form_classes at level 4, the k = 3, lambda = 1 case: the
    b(v-3) quadruples holding a parent block, then the rest."""
    return _k3_case(parent, 4)
