"""Bitmask sets over a ground set {1..v}: element i lives at bit i-1."""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 64
# the most points on which a whole-power-set pass (a sweep that keeps its
# members, a subset-lattice transform) runs: 2^24 cells
SWEEP_LIMIT = 24


def full_mask(v: int) -> int:
    """Mask with all of 1..v present."""
    return (1 << v) - 1


def mask_from_labels(labels: Iterable[int], v: int | None = None) -> int:
    """Build a mask from 1-based element labels; rejects repeats and out-of-range labels."""
    mask = 0
    for x in labels:
        if x < 1 or (v is not None and x > v) or x > MAX_GROUND:
            raise ValueError(f"element label {x} out of range 1..{v or MAX_GROUND}")
        bit = 1 << (x - 1)
        if mask & bit:
            raise ValueError(f"repeated element label {x}")
        mask |= bit
    return mask


def labels_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def as_mask(block, v: int | None = None) -> int:
    """Accept a block given either as a mask or as an iterable of labels."""
    if isinstance(block, int):
        if block < 0 or (v is not None and block >> v):
            raise ValueError(f"mask {block:#x} not within ground set of size {v}")
        return block
    return mask_from_labels(block, v)


def later_copies(arr: np.ndarray) -> np.ndarray:
    """Boolean array, true at each entry equal to an earlier entry."""
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    out = np.zeros(arr.shape, dtype=bool)
    out[order[1:][ordered[1:] == ordered[:-1]]] = True
    return out


# _REVERSED_BYTES[x] is the byte x with its bit order reversed
_REVERSED_BYTES = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()


def label_rows(masks) -> np.ndarray:
    """Labels of equal-size masks as a (b x k) int64 matrix, one row per
    mask, rows in lexicographic order of their label tuples.

    Among same-size sets, A precedes B iff min(A ^ B) lies in A, i.e. iff A
    is larger once bit i is moved to bit 63-i; that bit reversal is a byte
    reversal with each byte's bits reversed, read as a big-endian uint64.
    """
    arr = np.array(masks, dtype="<u8")
    reversed_masks = _REVERSED_BYTES[arr.view(np.uint8)].view(">u8")
    arr = arr[np.argsort(~reversed_masks)]
    bits = np.unpackbits(arr.view(np.uint8), bitorder="little").view(bool)
    return (np.flatnonzero(bits) % 64 + 1).reshape(arr.size, -1)


def format_block(mask: int) -> str:
    return "{" + ",".join(str(x) for x in labels_from_mask(mask)) + "}"


def _complete(v: int, masks: np.ndarray, top: np.ndarray, r: int) -> np.ndarray:
    """Every completion of each prefix by r more elements above its largest
    element top (-1 for the empty prefix), prefixes in the given order and
    each prefix's completions in lexicographic order of label tuples.

    Prefix extension (Knuth, TAOCP 4A, 7.2.1.3): step i repeats each prefix
    once per admissible next element, from one above its largest element up
    to v-r+i, so every prefix built can still be completed and no step holds
    more masks than the result.
    """
    for i in range(r):
        reps = (v - r + i) - top
        first = np.repeat(np.cumsum(reps) - reps, reps)
        top = np.repeat(top, reps) + 1 + (np.arange(first.size) - first)
        masks = np.repeat(masks, reps) | (np.uint64(1) << top.astype(np.uint64))
    return masks


def _chunks(v: int, prefix: int, top: int, r: int, limit: int) -> Iterator[np.ndarray]:
    """level_chunks below one prefix: its completions by r more elements."""
    if comb(v - 1 - top, r) <= limit:
        yield _complete(v, np.array([prefix], dtype=np.uint64), np.array([top]), r)
        return
    # the next element a splits the range into C(v-1-a, r-1) completions
    # each, falling as a rises: the large ones are split again, and runs of
    # small siblings share a piece so that pieces stay few
    a = top + 1
    while comb(v - 1 - a, r - 1) > limit:
        yield from _chunks(v, prefix | 1 << a, a, r - 1, limit)
        a += 1
    while a <= v - r:
        end, total = a, 0
        while end <= v - r and total + comb(v - 1 - end, r - 1) <= limit:
            total += comb(v - 1 - end, r - 1)
            end += 1
        heads = np.arange(a, end)
        masks = np.uint64(prefix) | np.uint64(1) << heads.astype(np.uint64)
        yield _complete(v, masks, heads, r - 1)
        a = end


def level_chunks(v: int, n: int, limit: int) -> Iterator[np.ndarray]:
    """Every n-subset of {1..v} as uint64 masks in lexicographic order of
    label tuples, yielded in consecutive pieces of at most `limit` masks.

    Pieces are the completions of a fixed prefix, or of a run of sibling
    prefixes; a prefix with more than `limit` completions is split by its
    next element in turn, so the state held is one prefix per depth.
    """
    if 0 <= n <= v:
        yield from _chunks(v, 0, -1, n, limit)


def level_masks(v: int, n: int) -> np.ndarray:
    """Every n-subset of {1..v} as a uint64 mask, in lexicographic order of
    label tuples (not ascending mask order: {1,4} precedes {2,3}): the
    pieces of level_chunks joined, which with no limit is one piece."""
    return next(level_chunks(v, n, 1 << 64), np.zeros(0, dtype=np.uint64))


def subsets_of_size(v: int, n: int) -> Iterator[int]:
    """All n-subsets of {1..v} as masks, in lexicographic order of their label tuples."""
    yield from level_masks(v, n).tolist()


def subset_sums(a: np.ndarray, v: int, op=np.add, supersets: bool = False) -> np.ndarray:
    """Zeta transform over the subset lattice of {1..v}, in place on axis 0.

    Entry s of `a` (length 2^v along axis 0) becomes op over the entries t
    with t a subset of s, or with t a superset of s when `supersets` is set.
    One pass per element: pass i folds each set without element i+1 into the
    set with it (or the reverse), so v passes reach every pair t, s.
    """
    for i in range(v):
        halves = a.reshape(-1, 2, 1 << i, *a.shape[1:])
        lo, hi = halves[:, 0], halves[:, 1]
        if supersets:
            op(lo, hi, out=lo)
        else:
            op(hi, lo, out=hi)
    return a
