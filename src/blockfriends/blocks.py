"""Bitmask sets over a ground set {1..v}: element i lives at bit i-1."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 64


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


def format_block(mask: int) -> str:
    return "{" + ",".join(str(x) for x in labels_from_mask(mask)) + "}"


def level_masks(v: int, n: int) -> np.ndarray:
    """Every n-subset of {1..v} as a uint64 mask, in lexicographic order of
    label tuples (not ascending mask order: {1,4} precedes {2,3}).

    Built by prefix extension (Knuth, TAOCP 4A, 7.2.1.3): step i repeats each
    prefix once per admissible next element, from one above its largest
    element up to v-n+i, so every prefix built can still be completed and no
    step holds more than C(v,n) masks.
    """
    masks = np.zeros(1 if 0 <= n <= v else 0, dtype=np.uint64)
    top = np.full(masks.size, -1, dtype=np.int64)  # largest element of each prefix
    for i in range(n):
        reps = (v - n + i) - top
        first = np.repeat(np.cumsum(reps) - reps, reps)
        top = np.repeat(top, reps) + 1 + (np.arange(first.size) - first)
        masks = np.repeat(masks, reps) | (np.uint64(1) << top.astype(np.uint64))
    return masks


def subsets_of_size(v: int, n: int) -> Iterator[int]:
    """All n-subsets of {1..v} as masks, in lexicographic order of their label tuples."""
    yield from level_masks(v, n).tolist()


def proper_submasks(mask: int) -> Iterator[int]:
    """Every proper subset of `mask`, including the empty set."""
    s = (mask - 1) & mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask
