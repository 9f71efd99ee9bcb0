"""Bitmask sets over a ground set {1..v}: element i lives at bit i-1."""

from __future__ import annotations

from math import comb
from operator import index
from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 64
# the most points on which a whole-power-set pass (a sweep that keeps its
# members, a subset-lattice transform) runs: 2^24 cells
SWEEP_LIMIT = 24
# cells per piece of a walk (intersection sizes, incidences: about 2 MB as
# int64 or float64), and the most uint64 cells of classify_level's count table
CHUNK_CELLS = 1 << 18


def full_mask(v: int) -> int:
    """Mask with all of 1..v present."""
    return (1 << v) - 1


def mask_from_labels(labels: Iterable[int], v: int | None = None) -> int:
    """Build a mask (a Python int) from 1-based integer labels, numpy's
    included; rejects repeats and out-of-range labels."""
    mask = 0
    for x in labels:
        if x < 1 or (v is not None and x > v) or x > MAX_GROUND:
            raise ValueError(f"element label {x} out of range 1..{v or MAX_GROUND}")
        bit = 1 << (index(x) - 1)
        if mask & bit:
            raise ValueError(f"repeated element label {x}")
        mask |= bit
    return mask


def labels_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a mask (any integer, read as a Python int)."""
    mask = index(mask)
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def as_mask(block, v: int | None = None) -> int:
    """A block given as a mask (any integer, read as a Python int) or as labels."""
    try:
        mask = index(block)
    except TypeError:
        return mask_from_labels(block, v)
    if mask < 0 or (v is not None and mask >> v):
        raise ValueError(f"mask {mask:#x} not within ground set of size {v}")
    return mask


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


def _lex(m: int, r: int, memo: dict) -> np.ndarray:
    """The r-subsets of {0..m-1}, 0 <= r <= m, as uint64 masks in
    lexicographic order of label tuples, by Pascal's rule
    C(m, r) = C(m-1, r-1) + C(m-1, r) (Knuth, TAOCP 4A, 7.2.1.3): the sets
    holding 0, then those without it, each a table on {0..m-2} shifted up
    one place.  `memo` keeps every table built, so each is built once."""
    table = memo.get((m, r))
    if table is None:
        if r == 0 or r == m:
            table = np.array([(1 << r) - 1], dtype=np.uint64)
        elif r == 1:
            table = np.uint64(1) << np.arange(m, dtype=np.uint64)
        else:
            with_0 = _lex(m - 1, r - 1, memo)
            table = np.concatenate((with_0, _lex(m - 1, r, memo))) << np.uint64(1)
            table[: with_0.size] |= np.uint64(1)
        memo[m, r] = table
    return table


def _walk(v: int, prefix: int, low: int, r: int, limit: int, memo: dict) -> Iterator[np.ndarray]:
    """The completions of `prefix` by r elements of {low..v-1}, in
    lexicographic order, as tables of at most `limit` masks: one _lex table
    when they fit, else those taking element low, then those skipping it."""
    if comb(v - low, r) <= limit:
        yield _lex(v - low, r, memo) << np.uint64(low) | np.uint64(prefix)
    else:
        yield from _walk(v, prefix | 1 << low, low + 1, r - 1, limit, memo)
        yield from _walk(v, prefix, low + 1, r, limit, memo)


def level_chunks(v: int, n: int, limit: int) -> Iterator[np.ndarray]:
    """Every n-subset of {1..v} as uint64 masks in lexicographic order of
    label tuples, in consecutive pieces of at most `limit` masks: the tables
    of _walk, which holds one prefix per depth, joined while they fit."""
    if not 0 <= n <= v:
        return
    run: list[np.ndarray] = []
    for table in _walk(v, 0, 0, n, limit, {}):
        if sum(map(len, run)) + table.size > limit:
            piece, run = np.concatenate(run), []
            yield piece
        run.append(table)
    yield np.concatenate(run)


def level_masks(v: int, n: int) -> np.ndarray:
    """Every n-subset of {1..v} as a uint64 mask, in lexicographic order of
    label tuples (not ascending mask order: {1,4} precedes {2,3})."""
    return _lex(v, n, {}) if 0 <= n <= v else np.zeros(0, dtype=np.uint64)


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
