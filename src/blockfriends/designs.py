"""Block designs on {1..v}: parameter checks, detection, construction, complements.

A design is stored as a ground-set size plus a tuple of bitmask blocks.
Two designs are equal when they have the same ground set and the same set
of blocks; block order is preserved for storage but ignored by equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .blocks import (
    as_mask,
    format_block,
    full_mask,
    labels_from_mask,
    MAX_GROUND,
    subsets_of_size,
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


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """A simple family of equal-sized blocks, with BIBD parameters when they hold.

    `params` is None for raw (unvalidated or non-design) families and for the
    degenerate empty-block design.  The two degenerate designs are the one
    whose single block is the empty set and the one whose single block is all
    of V; both are accepted as family members by convention.
    """

    v: int
    blocks: tuple[int, ...]
    params: Optional[DesignParams]
    name: str = ""

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return self.blocks[0].bit_count()

    @property
    def is_degenerate(self) -> bool:
        return self.k == 0 or self.k == self.v

    @property
    def counts_as_design(self) -> bool:
        return self.params is not None or self.is_degenerate

    def block_labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(labels_from_mask(m) for m in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockDesign):
            return NotImplemented
        return self.v == other.v and frozenset(self.blocks) == frozenset(other.blocks)

    def __hash__(self) -> int:
        return hash((self.v, frozenset(self.blocks)))

    def __repr__(self) -> str:
        tag = self.name or f"{self.b} blocks"
        return f"BlockDesign(v={self.v}, {tag}, params={self.params})"


def _normalize_blocks(blocks: Iterable, v: int) -> tuple[int, ...]:
    if not 1 <= v <= MAX_GROUND:
        raise DesignError(f"ground set size {v} outside 1..{MAX_GROUND}")
    out = []
    seen = set()
    for blk in blocks:
        m = as_mask(blk, v)
        if m in seen:
            raise DesignError(f"duplicate block {format_block(m)}")
        seen.add(m)
        out.append(m)
    if not out:
        raise DesignError("a block family needs at least one block")
    return tuple(out)


def detect_design(blocks, v: int) -> tuple[Optional[DesignParams], str]:
    """Decide whether a block family satisfies the BIBD axioms.

    Returns (params, "") on success and (None, witness) otherwise, where the
    witness names a concrete failing count.  Duplicate blocks or out-of-range
    labels are input errors and raise, they are not a verdict.
    Block size 1 is accepted with lambda = 0 (no pair ever occurs).
    """
    masks = _normalize_blocks(blocks, v)
    arr = np.array(masks, dtype=np.uint64)
    sizes = np.bitwise_count(arr)
    if sizes.min() != sizes.max():
        i, j = int(sizes.argmin()), int(sizes.argmax())
        return None, (
            f"block {format_block(masks[i])} has {int(sizes[i])} elements, "
            f"block {format_block(masks[j])} has {int(sizes[j])}"
        )
    k = int(sizes[0])
    if k == 0:
        return None, "the empty set is not a block of any design"
    bits = np.arange(v, dtype=np.uint64)[:, None]
    incidence = (arr >> bits) & np.uint64(1)  # element x block
    gram = incidence @ incidence.T  # entry (x, y): blocks holding both x and y
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
    xs, ys = np.triu_indices(v, 1)  # pairs x < y in lexicographic order
    lams = gram[xs, ys]
    lo, hi = int(lams.argmin()), int(lams.argmax())
    if lams[lo] != lams[hi]:
        return None, (
            f"pair {{{xs[lo] + 1},{ys[lo] + 1}}} in {lams[lo]} blocks, "
            f"pair {{{xs[hi] + 1},{ys[hi] + 1}}} in {lams[hi]}"
        )
    return DesignParams(v, len(masks), r, k, int(lams[0])), ""


def design(v: int, blocks, name: str = "") -> BlockDesign:
    """Build a validated design; raises DesignError with a witness if axioms fail."""
    masks = _normalize_blocks(blocks, v)
    if len(masks) == 1 and masks[0] in (0, full_mask(v)):
        return BlockDesign(v, masks, detect_design(masks, v)[0], name)
    params, witness = detect_design(masks, v)
    if params is None:
        raise DesignError(f"not a block design: {witness}")
    return BlockDesign(v, masks, params, name)


def family(v: int, blocks, name: str = "") -> BlockDesign:
    """Build a raw family of distinct equal-sized blocks; params attach only if valid."""
    masks = _normalize_blocks(blocks, v)
    sizes = {m.bit_count() for m in masks}
    if len(sizes) != 1:
        raise DesignError(f"block sizes differ: {sorted(sizes)}")
    k = sizes.pop()
    if k == 0 and len(masks) == 1:
        return BlockDesign(v, masks, None, name)
    params, _ = detect_design(masks, v)
    return BlockDesign(v, masks, params, name)


def empty_design(v: int) -> BlockDesign:
    """The degenerate design whose single block is the empty set."""
    return BlockDesign(v, (0,), None, "full-0")


def whole_design(v: int) -> BlockDesign:
    """The degenerate design whose single block is all of V."""
    return BlockDesign(v, (full_mask(v),), DesignParams(v, 1, 1, v, 1), f"full-{v}")


def full_design(v: int, k: int, name: str | None = None) -> BlockDesign:
    """The design made of every k-subset of {1..v}, blocks in lexicographic order.

    k = 0 and k = v give the degenerate designs.  k = 1 stores lambda = 0.
    """
    if not 0 <= k <= v:
        raise DesignError(f"block size {k} outside 0..{v}")
    if k == 0:
        d = empty_design(v)
    elif k == v:
        d = whole_design(v)
    else:
        lam = comb(v - 2, k - 2) if k >= 2 else 0
        params = DesignParams(v, comb(v, k), comb(v - 1, k - 1), k, lam)
        d = BlockDesign(v, tuple(subsets_of_size(v, k)), params, f"full-{k}")
    if name is not None:
        d = BlockDesign(d.v, d.blocks, d.params, name)
    return d


def complement_design(d: BlockDesign, name: str | None = None) -> BlockDesign:
    """Replace every block by its set complement in V, preserving block order."""
    if d.k > d.v - 1:
        raise DesignError("cannot complement the whole-set design")
    fm = full_mask(d.v)
    masks = tuple(fm ^ m for m in d.blocks)
    if name is None:
        name = f"{d.name}-complement" if d.name else ""
    if len(masks) == 1 and masks[0] in (0, fm):
        out = BlockDesign(d.v, masks, detect_design(masks, d.v)[0] if masks[0] else None, name)
    else:
        params, _ = detect_design(masks, d.v)
        out = BlockDesign(d.v, masks, params, name)
    if d.params is not None and out.params is not None:
        expected = complement_params(d.params)
        if out.params != expected:
            raise AssertionError(f"complement params {out.params} != {expected}")
    return out
