"""Finite fields given by explicit addition and multiplication tables.

Prime orders are generated directly; prime-power orders load from a table
file so no polynomial arithmetic is needed.  Axioms are machine-verified
exhaustively for q <= 16 (loaded tables are always verified).
"""

from __future__ import annotations

from dataclasses import dataclass


class FieldError(ValueError):
    """Bad field order, malformed table file, or a failed field axiom."""


@dataclass(frozen=True)
class FieldTables:
    """Elements are 0..q-1 with 0 the zero and 1 the one."""

    q: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


def verify_field(t: FieldTables) -> None:
    """Exhaustively check the field axioms; raises with a witness triple."""
    q, add, mul = t.q, t.add, t.mul
    if q < 2:
        raise FieldError(f"order {q} below 2: a field needs 0 != 1")
    rng = range(q)
    for table, op in ((add, "+"), (mul, "*")):
        if len(table) != q or any(len(row) != q for row in table):
            raise FieldError(f"{op} table is not {q}x{q}")
        for a in rng:
            for b in rng:
                x = table[a][b]
                if not 0 <= x < q:
                    raise FieldError(f"{a} {op} {b} = {x} outside 0..{q - 1}")
                if x != table[b][a]:
                    raise FieldError(f"{op} not commutative at ({a},{b})")
    for a in rng:
        if add[a][0] != a:
            raise FieldError(f"{a} + 0 != {a}")
        if mul[a][1] != a:
            raise FieldError(f"{a} * 1 != {a}")
        if mul[a][0] != 0:
            raise FieldError(f"{a} * 0 != 0")
        if not any(add[a][b] == 0 for b in rng):
            raise FieldError(f"{a} has no additive inverse")
        if a != 0 and not any(mul[a][b] == 1 for b in rng):
            raise FieldError(f"{a} has no multiplicative inverse")
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise FieldError(f"+ not associative at ({a},{b},{c})")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise FieldError(f"* not associative at ({a},{b},{c})")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise FieldError(f"distributivity fails at ({a},{b},{c})")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_field(p: int) -> FieldTables:
    """Arithmetic mod p; p must be prime and at most 61.

    The cap bounds the two p x p tables built here, to at most 61^2 entries
    each; it is not the plane limit, which projective_plane enforces on its
    own (q <= 7, for at most 64 points).
    """
    if p > 61:
        raise FieldError(f"order {p} too large: prime field tables stop at p = 61")
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime; load explicit tables instead")
    t = FieldTables(
        p,
        tuple(tuple((a + b) % p for b in range(p)) for a in range(p)),
        tuple(tuple((a * b) % p for b in range(p)) for a in range(p)),
    )
    if p <= 16:
        verify_field(t)
    return t


def load_field_tables(text: str) -> FieldTables:
    """Parse `q=<int>`, q addition rows, a `*` line, then q multiplication rows."""
    rows: list[list[int]] = []
    q: int | None = None
    sep_at: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if s.startswith("q="):
            if q is not None:
                raise FieldError(f"line {lineno}: repeated q= line")
            try:
                q = int(s[2:])
            except ValueError:
                raise FieldError(f"line {lineno}: non-integer order in {s!r}") from None
            continue
        if s == "*":
            if sep_at is not None:
                raise FieldError(f"line {lineno}: repeated * separator")
            sep_at = len(rows)
            continue
        try:
            rows.append([int(tok) for tok in s.split()])
        except ValueError:
            raise FieldError(f"line {lineno}: non-integer token in {s!r}") from None
    if q is None:
        raise FieldError("missing q= line")
    if sep_at != q or len(rows) != 2 * q:
        raise FieldError(f"expected {q} rows, a *, then {q} rows")
    t = FieldTables(
        q,
        tuple(tuple(r) for r in rows[:q]),
        tuple(tuple(r) for r in rows[q:]),
    )
    verify_field(t)
    return t


def format_field_tables(t: FieldTables) -> str:
    lines = [f"q={t.q}"]
    lines += [" ".join(str(x) for x in row) for row in t.add]
    lines.append("*")
    lines += [" ".join(str(x) for x in row) for row in t.mul]
    return "\n".join(lines) + "\n"
