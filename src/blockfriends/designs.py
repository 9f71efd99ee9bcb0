"""Block designs on {1..v}: parameter checks, detection, construction, complements.

A design is stored as a ground-set size plus its bitmask blocks, one
read-only uint64 array from parse to kernel.  Two designs are equal when
they have the same ground set and the same set of blocks; block order is
preserved for storage but ignored by equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import index
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import blocks
from .blocks import (
    as_mask,
    format_block,
    full_mask,
    labels_from_mask,
    later_copies,
    level_masks,
)


class DesignError(ValueError):
    """Invalid design input: bad labels, duplicate blocks, failed axioms."""


class DesignParams(NamedTuple):
    """The classical (v, b, r, k, lambda) parameter tuple."""

    v: int
    b: int
    r: int
    k: int
    lam: int


def complement_params(p: DesignParams) -> DesignParams:
    """Parameters of the complementary design: (v, b, b-r, v-k, b-2r+lambda)."""
    v, b, r, k, lam = p
    return DesignParams(v, b, b - r, v - k, b - 2 * r + lam)


def admissible(p: DesignParams) -> bool:
    """True iff b*k = v*r and r*(k-1) = lambda*(v-1)."""
    return p.b * p.k == p.v * p.r and p.r * (p.k - 1) == p.lam * (p.v - 1)


def frozen_masks(masks) -> np.ndarray:
    """The masks as a read-only uint64 array: the input itself when it is
    one already, else a copy, so a caller's writable array is never frozen
    or shared."""
    if isinstance(masks, np.ndarray) and masks.dtype == np.uint64 and not masks.flags.writeable:
        return masks
    out = np.array(masks, dtype=np.uint64)
    out.flags.writeable = False
    return out


def check_ground(v: int) -> int:
    """v as a Python int, so no numpy integer reaches mask arithmetic or
    params; raise DesignError unless a ground set of v points fits a mask."""
    v = index(v)
    if not 1 <= v <= blocks.MAX_GROUND:
        raise DesignError(f"ground set size {v} outside 1..{blocks.MAX_GROUND}")
    return v


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """A simple family of equal-sized blocks, with BIBD parameters when they hold.

    `params` is None for raw (unvalidated or non-design) families and for the
    degenerate empty-block design.  The two degenerate designs are the one
    whose single block is the empty set and the one whose single block is all
    of V; both are accepted as family members by convention.
    """

    v: int
    blocks: np.ndarray  # read-only uint64 masks in stored order
    params: Optional[DesignParams]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "v", check_ground(self.v))
        object.__setattr__(self, "blocks", frozen_masks(self.blocks))

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return int(self.blocks[0]).bit_count()

    @property
    def is_degenerate(self) -> bool:
        return self.k == 0 or self.k == self.v

    @property
    def counts_as_design(self) -> bool:
        return self.params is not None or self.is_degenerate

    def block_labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(labels_from_mask(m) for m in self.blocks.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockDesign):
            return NotImplemented
        return self.v == other.v and np.array_equal(np.sort(self.blocks), np.sort(other.blocks))

    def __hash__(self) -> int:
        return hash((self.v, np.sort(self.blocks).tobytes()))

    def __repr__(self) -> str:
        tag = self.name or f"{self.b} blocks"
        return f"BlockDesign(v={self.v}, {tag}, params={self.params})"


def _normalize_blocks(blocks: Iterable, v: int) -> np.ndarray:
    """The blocks as uint64 masks, checked in input order: the first block
    that is out of range, has bad labels or repeats an earlier block raises.
    A uint64 array of distinct masks of subsets of 1..v, as a parsed file
    gives it, is checked in bulk and returned as it is.  v is a Python int
    that check_ground has passed."""
    if isinstance(blocks, np.ndarray) and blocks.dtype == np.uint64 and blocks.ndim == 1:
        if blocks.size and not (blocks >> v).any() and not later_copies(blocks).any():
            return blocks
    masks = tuple(blocks)
    if not masks:
        raise DesignError("a block family needs at least one block")
    seen: dict[int, None] = {}  # keeps the masks in input order
    for block in masks:
        m = as_mask(block, v)
        if m in seen:
            raise DesignError(f"duplicate block {format_block(m)}")
        seen[m] = None
    return np.fromiter(seen, dtype=np.uint64, count=len(seen))


def detect_design(blocks, v: int) -> tuple[Optional[DesignParams], str]:
    """Decide whether a block family satisfies the BIBD axioms.

    Returns (params, "") on success and (None, witness) otherwise, where the
    witness names a concrete failing count.  Duplicate blocks or out-of-range
    labels are input errors and raise, they are not a verdict.
    Block size 1 is accepted with lambda = 0 (no pair ever occurs).
    """
    v = check_ground(v)
    return detect_params(_normalize_blocks(blocks, v), v)


def detect_params(masks: np.ndarray, v: int) -> tuple[Optional[DesignParams], str]:
    """detect_design for uint64 masks already known to be distinct and
    within 1..v, such as those of a BlockDesign: nothing is validated again."""
    sizes = np.bitwise_count(masks)
    if sizes.min() != sizes.max():
        i, j = int(sizes.argmin()), int(sizes.argmax())
        return None, (
            f"block {format_block(masks[i])} has {int(sizes[i])} elements, "
            f"block {format_block(masks[j])} has {int(sizes[j])}"
        )
    k = int(sizes[0])
    if k == 0:
        return None, "the empty set is not a block of any design"
    # entry (x, y): blocks holding both x and y, summed in float64 over pieces
    # of CHUNK_CELLS // v blocks, each a float32 BLAS product of its block x
    # element incidences; exact while a piece holds under 2^24 blocks
    gram = np.zeros((v, v))
    step = max(1, blocks.CHUNK_CELLS // v)
    for lo in range(0, len(masks), step):
        piece = np.ascontiguousarray(masks[lo : lo + step], dtype="<u8").view(np.uint8)
        incidence = np.unpackbits(piece, bitorder="little").reshape(-1, 64)[:, :v].astype(np.float32)
        gram += incidence.T @ incidence
    gram = gram.astype(np.int64)
    counts = gram.diagonal()
    if counts.min() != counts.max():
        lo, hi = int(counts.argmin()), int(counts.argmax())
        return None, (
            f"element {lo + 1} in {int(counts[lo])} blocks, "
            f"element {hi + 1} in {int(counts[hi])}"
        )
    r = int(counts[0])
    if k == 1:
        return DesignParams(v, len(masks), r, 1, 0), ""
    lam = int(gram[0, 1])
    np.fill_diagonal(gram, lam)  # so the pairs agree iff every entry is lam
    if (gram == lam).all():
        return DesignParams(v, len(masks), r, k, lam), ""
    xs, ys = np.triu_indices(v, 1)  # pairs x < y in lexicographic order
    lams = gram[xs, ys]
    lo, hi = int(lams.argmin()), int(lams.argmax())
    return None, (
        f"pair {{{xs[lo] + 1},{ys[lo] + 1}}} in {lams[lo]} blocks, "
        f"pair {{{xs[hi] + 1},{ys[hi] + 1}}} in {lams[hi]}"
    )


def design(v: int, blocks, name: str = "") -> BlockDesign:
    """Build a validated design; raises DesignError with a witness if axioms fail."""
    v = check_ground(v)
    masks = _normalize_blocks(blocks, v)
    params, witness = detect_params(masks, v)
    if params is None and masks.any():  # the empty-block design is degenerate
        raise DesignError(f"not a block design: {witness}")
    return BlockDesign(v, masks, params, name)


def family(v: int, blocks, name: str = "") -> BlockDesign:
    """Build a raw family of distinct equal-sized blocks; params attach only if valid."""
    v = check_ground(v)
    masks = _normalize_blocks(blocks, v)
    sizes = np.unique(np.bitwise_count(masks))
    if sizes.size != 1:
        raise DesignError(f"block sizes differ: {sizes.tolist()}")
    return BlockDesign(v, masks, detect_params(masks, v)[0], name)


def empty_design(v: int) -> BlockDesign:
    """The degenerate design whose single block is the empty set."""
    return BlockDesign(v, (0,), None, "full-0")


def whole_design(v: int) -> BlockDesign:
    """The degenerate design whose single block is all of V; lambda = 0 at
    v = 1, where no pair exists."""
    v = check_ground(v)
    return BlockDesign(v, (full_mask(v),), DesignParams(v, 1, 1, v, int(v > 1)), f"full-{v}")


def full_design(v: int, k: int, name: str | None = None) -> BlockDesign:
    """The design made of every k-subset of {1..v}, blocks in lexicographic order.

    k = 0 and k = v give the degenerate designs.  k = 1 stores lambda = 0.
    """
    v, k = check_ground(v), index(k)
    if not 0 <= k <= v:
        raise DesignError(f"block size {k} outside 0..{v}")
    if k == 0:
        d = empty_design(v)
    elif k == v:
        d = whole_design(v)
    else:
        lam = comb(v - 2, k - 2) if k >= 2 else 0
        params = DesignParams(v, comb(v, k), comb(v - 1, k - 1), k, lam)
        d = BlockDesign(v, level_masks(v, k), params, f"full-{k}")
    if name is not None:
        d = BlockDesign(d.v, d.blocks, d.params, name)
    return d


def complement_design(d: BlockDesign, name: str | None = None) -> BlockDesign:
    """Replace every block by its set complement in V, preserving block order."""
    if d.k > d.v - 1:
        raise DesignError("cannot complement the whole-set design")
    masks = np.uint64(full_mask(d.v)) ^ d.blocks
    if name is None:
        name = f"{d.name}-complement" if d.name else ""
    out = BlockDesign(d.v, masks, detect_params(masks, d.v)[0], name)
    if d.params is not None and out.params is not None:
        expected = complement_params(d.params)
        if out.params != expected:
            raise AssertionError(f"complement params {out.params} != {expected}")
    return out
