"""Text format for design files.

Lines starting with `#` are comments, blank lines are ignored.  The first
data line may be `v=<int>`; every other data line is one block written as
whitespace-separated 1-based labels.  Tokens are read with Python's int(),
so `+3`, `1_0` and non-ASCII decimal digits are labels too.  When `v=` is
absent the ground-set size is the largest label seen.  The writer emits
`v=<int>` followed by the blocks sorted lexicographically, single-space
separated.

A file is parsed as whole arrays, not line by line; an error still names
the first failing line, with the checks of one line (header, integer
tokens, positive labels) ahead of those that need the ground-set size
(range, repeated label, duplicate block).
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import itemgetter, not_

import numpy as np

from .blocks import label_rows, later_copies, mask_from_labels, MAX_GROUND
from .designs import BlockDesign, DesignError, design, family


class DesignFileError(DesignError):
    """Parse failure, with the 1-based line number where it happened."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _data_lines(text: str) -> tuple[list[int], list[str]]:
    """Line numbers and stripped text of the lines that are not blank and
    not comments: those whose first character, s[:1], is neither "" nor "#"."""
    stripped = list(map(str.strip, text.splitlines()))
    firsts = map(itemgetter(slice(1)), stripped)
    keep = list(map(not_, map({"", "#"}.__contains__, firsts)))
    return list(compress(count(1), keep)), list(compress(stripped, keep))


def _ground_size(lineno: int, header: str) -> int:
    try:
        v = int(header[2:])
    except ValueError:
        raise DesignFileError(lineno, f"bad ground-set size {header!r}") from None
    if not 1 <= v <= MAX_GROUND:
        raise DesignFileError(lineno, f"v={v} outside 1..{MAX_GROUND}")
    return v


def _parse(text: str) -> tuple[int, np.ndarray]:
    linenos, data = _data_lines(text)
    v_declared = None
    if data and data[0].startswith("v="):
        v_declared = _ground_size(linenos[0], data[0])
        linenos, data = linenos[1:], data[1:]
    rows = list(map(str.split, data))
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ends = np.cumsum(counts)  # rows are never empty, so ends increase strictly
    tokens = list(chain.from_iterable(rows))
    labels: list[int] = []
    try:
        labels.extend(map(int, tokens))  # list.extend keeps the labels before a bad token
    except ValueError:
        pass
    try:
        lab = np.array(labels, dtype=np.int64)
    except OverflowError:  # past int64 is out of range either way
        lab = np.array(labels, dtype=object).clip(0, MAX_GROUND + 1).astype(np.int64)
    # the row of the first token int() rejects, len(rows) if there is none;
    # a later v= line is such a row, as its first token starts with "v="
    bad = int(np.searchsorted(ends, len(labels), side="right"))
    nonpos = np.flatnonzero(lab < 1)[:1]
    if nonpos.size and (r := int(np.searchsorted(ends, nonpos[0], side="right"))) < bad:
        raise DesignFileError(linenos[r], "labels must be positive")
    if bad < len(rows):
        if data[bad].startswith("v="):
            raise DesignFileError(linenos[bad], "v= must be the first data line")
        raise DesignFileError(linenos[bad], f"non-integer token in {data[bad]!r}")
    if not rows:
        raise DesignFileError(1, "no blocks in file")

    v = v_declared or min(int(lab.max()), MAX_GROUND)
    starts = ends - counts
    shifts = (np.minimum(lab, MAX_GROUND) - 1).astype(np.uint64)
    bits = np.where(lab <= v, np.left_shift(np.uint64(1), shifts), np.uint64(0))
    masks = np.bitwise_or.reduceat(bits, starts)
    # a label out of range adds no bit and a repeated one adds none twice
    broken = (np.bitwise_count(masks) != counts) | later_copies(masks)
    if broken.any():
        r = int(np.argmax(broken))
        row = labels[starts[r] : ends[r]]
        try:
            mask_from_labels(row, v)
        except ValueError as exc:
            raise DesignFileError(linenos[r], str(exc)) from None
        raise DesignFileError(linenos[r], f"duplicate block {stripped_labels(row)}")
    return v, masks


def stripped_labels(labels) -> str:
    return " ".join(str(x) for x in sorted(labels))


def load_design(text: str, name: str = "") -> BlockDesign:
    """Parse and validate; raises DesignError with a witness if the axioms fail."""
    v, masks = _parse(text)
    return design(v, masks, name)


def load_family(text: str, name: str = "") -> BlockDesign:
    """Parse without insisting on the BIBD axioms (blocks must still be uniform)."""
    v, masks = _parse(text)
    return family(v, masks, name)


def save_design(d: BlockDesign, comment: str = "") -> str:
    """Render a design in the file format; blocks come out sorted lexicographically."""
    if d.b == 1 and d.blocks[0] == 0:
        raise DesignError("the empty-block design has no file representation")
    head = [f"# {part}" for part in comment.splitlines()] + [f"v={d.v}"]
    rows = label_rows(d.blocks)
    body = "\n".join([" ".join(["%d"] * d.k)] * d.b) % tuple(rows.ravel().tolist())
    return "\n".join(head) + "\n" + body + "\n"
