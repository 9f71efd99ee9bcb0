import random

import pytest
from hypothesis import example, given, settings, strategies as st

from blockfriends import (
    DesignError,
    DesignFileError,
    build_family,
    empty_design,
    family,
    fano,
    fano_family_members,
    full_design,
    load_design,
    load_family,
    nine_point_design,
    prime_field,
    projective_plane,
    save_design,
    sts13_s1,
    sts13_s2,
)
from blockfriends.designs import BlockDesign
from blockfriends.files import _parse
from oracle_util import BruteParseError, brute_family_order, brute_parse, brute_render

FANO_TEXT = """v=7
1 2 4
1 3 7
1 5 6
2 3 5
2 6 7
3 4 6
4 5 7
"""


def test_save_fano_golden():
    assert save_design(fano()) == FANO_TEXT


def test_round_trip_catalog():
    for d in (fano(), nine_point_design(), sts13_s1(), sts13_s2(),
              full_design(7, 5), projective_plane(prime_field(3))):
        assert load_design(save_design(d)) == d


def test_duplicate_block_error():
    with pytest.raises(DesignFileError, match="duplicate block"):
        load_family("1 2 3\n2 4 6\n1 2 3\n")


def test_comments_blanks_and_whitespace():
    d = load_design("# a comment\n\nv=7\n  2 3 5\t\n3 4 6\n4 5 7\n1 5 6\n"
                    "2 6 7\n# another\n1 3 7\n1 2 4\n")
    assert d == fano()


def test_v_inferred_from_max_label():
    d = load_design("1 2\n1 3\n2 3\n")
    assert d.v == 3


def test_header_must_come_first():
    with pytest.raises(DesignFileError, match="first data line"):
        load_family("1 2 3\nv=7\n")


def test_label_out_of_declared_range():
    with pytest.raises(DesignFileError, match="out of range"):
        load_family("v=5\n1 2 6\n")


def test_bad_tokens():
    with pytest.raises(DesignFileError, match="non-integer"):
        load_family("1 2 x\n")
    with pytest.raises(DesignFileError, match="positive"):
        load_family("0 1 2\n")
    with pytest.raises(DesignFileError, match="no blocks"):
        load_family("# nothing here\n")


def test_line_numbers_reported():
    try:
        load_family("v=7\n1 2 3\n4 5 nope\n")
    except DesignFileError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


def test_load_design_rejects_non_design_with_witness():
    with pytest.raises(DesignError, match="pair"):
        load_design("1 2\n3 4\n1 3\n2 4\n")
    with pytest.raises(DesignError, match="element"):
        load_design("1 2 3\n1 2 4\n")
    raw = load_family("1 2 3\n1 2 4\n")
    assert raw.params is None


def test_empty_design_not_representable():
    with pytest.raises(DesignError):
        save_design(empty_design(7))


# ---------------------------------------------------------------- array parser against the line-by-line oracle

# tokens int() reads in its own way, or rejects; and labels that are 0,
# negative, above any v, above 64 or past int64
ODD_TOKENS = ["+3", "\uff13", "1_0", "\u0661", "x", "3.0", "1__0", "0", "-2", "65", "70",
              "99999999999999999999999", "-99999999999999999999999", str(2**64)]
HEADERS = ["v=7", "v=5", "v=3", "v=64", "v=0", "v=65", "v=-1", "v=x", "v=", "v=+6",
           "v= 7", "v=\uff17", "v=7 8"]


@st.composite
def design_texts(draw):
    """Design-file texts, mostly well formed, with every kind of bad line."""
    label = st.one_of(*[st.integers(1, 7).map(str)] * 4,
                      st.integers(-2, 70).map(str), st.sampled_from(ODD_TOKENS))
    block = st.lists(label, min_size=1, max_size=5)
    pool = draw(st.lists(block, min_size=1, max_size=4))  # drawn from again: duplicates
    line = st.one_of(
        block.map(" ".join),
        st.sampled_from(pool).map(lambda row: " ".join(reversed(row))),
        st.sampled_from(pool).map("\t".join),
        st.sampled_from(["", "   ", "\t", "# comment", "  #v=3", "#", "# 1 2 3"]),
        st.sampled_from(HEADERS),
    )
    lines = draw(st.lists(line, min_size=1, max_size=12))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["v=7", "v=7", "v=64", *HEADERS])))
    pad = draw(st.sampled_from(["", " ", "  \t"]))
    end = draw(st.sampled_from(["\n", "", "\r\n\n"]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(pad + x + pad for x in lines) + end


def _outcome(parse, text):
    try:
        v, masks = parse(text)
    except (DesignFileError, BruteParseError) as exc:
        return "error", exc.line, str(exc)
    return v, masks


@given(design_texts())
@example("")
@example("1 70\n")
@example("1 99999999999999999999999\n")
@example("v=7\n1 2\n0 1\n3 x\nv=3\n")
@example("1 2\n3 x 0\n0 1\n")
@example("v=3\n1 2\n2 1\n1 1\n")
@example("+3 \uff11\n1_0 2\n")
@settings(max_examples=600, deadline=None)
def test_parse_matches_line_by_line_oracle(text):
    """(v, masks) or the first bad line and its message, as the per-line
    parser gives them."""
    assert _outcome(_parse, text) == _outcome(brute_parse, text)


# ---------------------------------------------------------------- rendering and member order against oracles


@st.composite
def random_families(draw):
    v = draw(st.one_of(st.integers(1, 64), st.just(64), st.just(1)))
    k = draw(st.one_of(st.integers(1, v), st.just(1), st.just(v)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    masks = {sum(1 << x for x in rng.sample(range(v), k)) for _ in range(draw(st.integers(1, 40)))}
    return family(v, list(masks), "drawn")


@given(random_families(), st.sampled_from(["", "one line", "two\nlines"]))
@example(family(64, [(1 << 64) - 1]), "")
@example(family(64, [1 << 63, 1, 1 << 31]), "")
@settings(max_examples=300, deadline=None)
def test_save_design_matches_oracle_renderer(d, comment):
    assert save_design(d, comment) == brute_render(d.v, d.blocks, comment)


def _copy(d, name, seed):
    """An equal design: same blocks in another order, another name."""
    blocks = list(d.blocks)
    random.Random(seed).shuffle(blocks)
    return BlockDesign(d.v, tuple(blocks), d.params, name)


@given(st.lists(st.tuples(st.sampled_from(fano_family_members()), st.integers(0, 3)),
                max_size=9))
@settings(max_examples=200, deadline=None)
def test_build_family_order_and_duplicates_match_oracle(picks):
    """Member order, and which duplicate is named, as the old sort key and
    the pairwise == loop give them; copies are shuffled and renamed,
    some to "" so that the index is named."""
    designs = [d if c == 0 else _copy(d, "" if c == 1 else f"{d.name}-{c}", c)
               for d, c in picks]
    members, error = brute_family_order(designs)
    if not designs:
        error = "a friendly family needs at least one member"
    if error is not None:
        with pytest.raises(DesignError) as exc:
            build_family(designs)
        assert str(exc.value) == error
    else:
        assert [id(d) for d in build_family(designs).members] == [id(d) for d in members]
