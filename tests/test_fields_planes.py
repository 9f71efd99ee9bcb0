from importlib import resources

import pytest

from blockfriends import (
    DesignParams,
    FieldError,
    FieldTables,
    are_friends,
    format_field_tables,
    load_field_tables,
    prime_field,
    projective_plane,
    verify_field,
)


def gf4_text():
    return resources.files("blockfriends.data").joinpath("gf4.tables").read_text()


def test_prime_fields_verify():
    for p in (2, 3, 5, 7, 11, 13):
        t = prime_field(p)
        verify_field(t)
        assert t.q == p


def test_prime_field_rejections():
    with pytest.raises(FieldError, match="not prime"):
        prime_field(4)
    with pytest.raises(FieldError, match="not prime"):
        prime_field(1)
    with pytest.raises(FieldError, match="too large"):
        prime_field(67)


def test_gf4_tables_load_and_round_trip():
    t = load_field_tables(gf4_text())
    assert t.q == 4
    assert t.mul[2][2] == 3 and t.mul[2][3] == 1 and t.mul[3][3] == 2
    again = load_field_tables(format_field_tables(t))
    assert again == t


def test_gf2_file_matches_prime_field():
    text = "q=2\n0 1\n1 0\n*\n0 0\n0 1\n"
    assert load_field_tables(text) == prime_field(2)


def test_zero_divisor_table_rejected():
    # mod-4 arithmetic: 2 has no multiplicative inverse
    rows_add = "\n".join(" ".join(str((a + b) % 4) for b in range(4)) for a in range(4))
    rows_mul = "\n".join(" ".join(str((a * b) % 4) for b in range(4)) for a in range(4))
    with pytest.raises(FieldError, match="inverse"):
        load_field_tables(f"q=4\n{rows_add}\n*\n{rows_mul}\n")


def test_malformed_table_files():
    with pytest.raises(FieldError, match="q="):
        load_field_tables("0 1\n1 0\n")
    with pytest.raises(FieldError, match="expected"):
        load_field_tables("q=2\n0 1\n1 0\n*\n0 0\n")
    with pytest.raises(FieldError, match="non-integer"):
        load_field_tables("q=2\n0 x\n1 0\n*\n0 0\n0 1\n")
    for q_line in ("q=x", "q="):
        with pytest.raises(FieldError, match=f"line 2: non-integer order in '{q_line}'"):
            load_field_tables(f"# order\n{q_line}\n0 1\n1 0\n*\n0 0\n0 1\n")
    with pytest.raises(FieldError, match="order 1 below 2"):
        load_field_tables("q=1\n0\n*\n0\n")
    with pytest.raises(FieldError, match="order 0 below 2"):
        load_field_tables("q=0\n*\n")


def test_broken_axiom_witnesses():
    t = FieldTables(2, ((0, 1), (1, 1)), ((0, 0), (0, 1)))
    with pytest.raises(FieldError, match="commutative|inverse|0"):
        verify_field(t)


def test_planes_small_orders():
    for q, tables in ((2, prime_field(2)), (3, prime_field(3)),
                      (4, load_field_tables(gf4_text()))):
        d = projective_plane(tables)
        n = q * q + q + 1
        assert d.params == DesignParams(n, n, q + 1, q + 1, 1)


def test_plane_blocks_pairwise_meet_once():
    d = projective_plane(prime_field(3))
    for i in range(d.b):
        for j in range(i + 1, d.b):
            assert (d.blocks[i] & d.blocks[j]).bit_count() == 1


def test_plane_order2_self_profile():
    d = projective_plane(prime_field(2))
    v = are_friends(d, d)
    assert v.friends and v.profile_1_2.z == (0, 6, 0, 1)


def test_plane_construction_deterministic():
    a = projective_plane(prime_field(3))
    b = projective_plane(prime_field(3))
    assert a.blocks.tolist() == b.blocks.tolist()
