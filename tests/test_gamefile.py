"""JSON game file parsing and canonical serialisation."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import games
from coopvals import (
    NonzeroEmptyCoalition,
    ParseError,
    PlayerCountExceeded,
    TooFewPlayers,
    TUGame,
    build_game,
    game_doc,
    parse_game_file,
    serialise_game,
)
from coopvals import gamefile


def doc(**kwargs) -> str:
    return json.dumps(kwargs)


def test_parse_worked_example(g6):
    text = doc(
        players=3,
        worths={"1": 1, "2": 1, "3": 2, "1,2": 6, "1,3": 6, "2,3": 6, "1,2,3": 8},
    )
    v = parse_game_file(text)
    assert v.worths == g6.worths
    assert v.labels is None


def test_parse_empty_worths_is_zero_game():
    v = parse_game_file(doc(players=2, worths={}))
    assert v.worths == (0, 0, 0, 0)


def test_parse_accepts_bytes():
    v = parse_game_file(doc(players=1, worths={"1": "1/2"}).encode())
    assert v.worths == (0, Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_game_file(b"\xff\xfe{}")


def test_bad_coalition_keys():
    for key in ("3,1", "1,1", "01", "0", "1, 2", "a", ""):
        with pytest.raises(ParseError):
            parse_game_file(doc(players=3, worths={key: 1}))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=3, worths={"4": 1}))


def test_duplicate_keys_rejected():
    text = '{"players": 2, "worths": {"1": 1, "1": 2}}'
    with pytest.raises(ParseError):
        parse_game_file(text)
    text = '{"players": 2, "players": 3, "worths": {}}'
    with pytest.raises(ParseError):
        parse_game_file(text)


def test_top_level_structure():
    with pytest.raises(ParseError):
        parse_game_file("[1, 2]")
    with pytest.raises(ParseError):
        parse_game_file("{ not json }")
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, worths={}, notes="hi"))
    with pytest.raises(ParseError):
        parse_game_file(doc(worths={}))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, worths={}, worths_by_mask=[0, 0, 0, 0]))


def test_players_validation():
    with pytest.raises(TooFewPlayers):
        parse_game_file(doc(players=0, worths={}))
    with pytest.raises(PlayerCountExceeded):
        parse_game_file(doc(players=25, worths={}))
    for bad in ("3", True, 1.5, None):
        with pytest.raises(ParseError):
            parse_game_file(doc(players=bad, worths={}))


def test_labels_validation():
    v = parse_game_file(doc(players=2, labels=["a", "b"], worths={"1,2": 3}))
    assert v.labels == ("a", "b")
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, labels=["a"], worths={}))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, labels=["a", 2], worths={}))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, labels="ab", worths={}))


def test_worth_literals():
    v = parse_game_file(
        doc(players=2, worths={"1": "7/2", "2": 0.1, "1,2": "2.5"})
    )
    assert v.worths == (0, Fraction(7, 2), Fraction(1, 10), Fraction(5, 2))
    v = parse_game_file(doc(players=1, worths={"1": 1e2}))
    assert v.worths == (0, 100)
    for bad in (True, "abc", "1/0", [1], None):
        with pytest.raises(ParseError):
            parse_game_file(doc(players=1, worths={"1": bad}))
    with pytest.raises(ParseError):
        parse_game_file('{"players": 1, "worths": {"1": NaN}}')
    with pytest.raises(ParseError):
        parse_game_file('{"players": 1, "worths": {"1": Infinity}}')
    with pytest.raises(ParseError):
        parse_game_file(doc(players=1, worths=[1]))


def test_worths_by_mask():
    v = parse_game_file(doc(players=2, worths_by_mask=[0, 1, 1, "9/2"]))
    assert v.worths == (0, 1, 1, Fraction(9, 2))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, worths_by_mask=[0, 1, 1]))
    with pytest.raises(ParseError):
        parse_game_file(doc(players=2, worths_by_mask={"0": 0}))
    with pytest.raises(NonzeroEmptyCoalition):
        parse_game_file(doc(players=2, worths_by_mask=[1, 1, 1, 1]))


def test_serialise_canonical_form(g6):
    text = serialise_game(g6)
    assert text.endswith("\n")
    rendered = json.loads(text)
    assert rendered == {
        "players": 3,
        "worths": {
            "1": "1",
            "2": "1",
            "3": "2",
            "1,2": "6",
            "1,3": "6",
            "2,3": "6",
            "1,2,3": "8",
        },
    }


def test_game_doc_omits_zero_worths():
    v = build_game(2, {0b11: Fraction(1, 3)}, labels=("x", "y"))
    assert game_doc(v) == {
        "players": 2,
        "labels": ["x", "y"],
        "worths": {"1,2": "1/3"},
    }


@settings(max_examples=60, deadline=None)
@given(games())
def test_round_trip_exact(v):
    again = parse_game_file(serialise_game(v))
    assert again.n == v.n
    assert again.worths == v.worths
    assert again.labels == v.labels


_SIGNS = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=8)
# Denominators with at least one nonzero digit, zero padded or not.
_DENOMINATORS = st.builds(
    lambda pad, q: "0" * pad + str(q), st.integers(0, 3), st.integers(1, 10**6)
)
_EXPONENTS = st.builds(
    lambda e, sign, k: f"{e}{sign}{k}",
    st.sampled_from("eE"), _SIGNS, st.integers(0, 400),
)
_GRAMMAR_LITERALS = st.one_of(
    st.builds(lambda s, p: s + p, _SIGNS, _DIGITS),
    st.builds(lambda s, p, q: f"{s}{p}/{q}", _SIGNS, _DIGITS, _DENOMINATORS),
    st.builds(
        lambda s, p, d, e: s + p + d + e,
        _SIGNS,
        _DIGITS,
        st.one_of(st.just(""), _DIGITS.map(lambda d: "." + d)),
        st.one_of(st.just(""), _EXPONENTS),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_GRAMMAR_LITERALS)
@example("+3")
@example("-0")
@example("-0/7")
@example("6/4")
@example("-010/0020")
@example("000.500e-01")
def test_literal_matches_fraction_of_its_text(text):
    value = gamefile._literal(text, "worth")
    assert type(value) is Fraction
    assert value == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["abc", "1/0", "1/00", " 1/2 ", "1_000", "1e50000", "9" * 5000, ".5", "5.", "1/-2"],
)
def test_literal_rejections(text):
    with pytest.raises(ParseError):
        gamefile._literal(text, "worth")


@pytest.mark.parametrize(
    "players, key, message",
    [
        (3, "3,1", "coalition key '3,1' is not strictly increasing"),
        (3, "1,1", "coalition key '1,1' is not strictly increasing"),
        (3, "01", "bad coalition key '01'"),
        (3, "0", "bad coalition key '0'"),
        (3, "", "bad coalition key ''"),
        (3, "1, 2", "bad coalition key '1, 2'"),
        (11, "1١", "bad coalition key '1١'"),
        (2, "1\n", "bad coalition key '1\\n'"),
        (3, "4", "coalition key '4' names player 4 of 3"),
        (
            3,
            "1,99999999999999999999999",
            "coalition key '1,99999999999999999999999' names player "
            "99999999999999999999999 of 3",
        ),
    ],
)
def test_bad_coalition_key_messages(players, key, message):
    text = doc(players=players, worths={"1": 2, key: 1})
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_game_file(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    # Nothing is allocated in proportion to a player number, however large.
    assert peak < 100_000


@pytest.mark.parametrize("n", range(1, 8))
def test_game_doc_keys_list_members_in_mask_order(n):
    v = TUGame(n, tuple(range(1 << n)))
    keys = [
        ",".join(str(i + 1) for i in range(n) if S >> i & 1) for S in range(1, 1 << n)
    ]
    assert list(game_doc(v)["worths"]) == keys
    assert parse_game_file(serialise_game(v)).worths == v.worths
