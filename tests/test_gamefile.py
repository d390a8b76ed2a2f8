"""JSON game file parsing and canonical serialisation."""

import contextlib
import io
import json
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import games
from coopvals import (
    CoopvalsError,
    DomainError,
    NonzeroEmptyCoalition,
    ParseError,
    PlayerCountExceeded,
    SamplerConfig,
    TooFewPlayers,
    TUGame,
    build_game,
    game_doc,
    parse_game_file,
    sample_games,
    serialise_game,
)
from coopvals import gamefile
from coopvals.game import SCALE_CAP, _scale
from coopvals.cli import main


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


_DEEP = "[" * 10_000 + "]" * 10_000


@pytest.mark.parametrize("text", [
    '{"players": 2, "labels": ' + _DEEP + ', "worths": {}}', _DEEP,
], ids=["labels", "top level"])
def test_a_file_nested_too_deeply_is_a_parse_error(tmp_path, capsys, text):
    # json.loads gives up past the recursion limit; the CLI exits 2 as for
    # any malformed JSON, with no traceback.
    with pytest.raises(ParseError, match="^malformed JSON: nested too deeply$"):
        parse_game_file(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["report", "--game", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed JSON")


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


# Labels json must escape: a quote, a backslash, control characters, text
# past ASCII (astral included), and the empty string.
_AWKWARD_LABELS = (
    'say "hi"', "back\\slash", "tab\tnew\nline", "naïve 東京 \U0001F600", "",
)
_FERMAT3 = Path(__file__).parent / "golden" / "fermat3_game.json"


@settings(max_examples=60, deadline=None)
@given(games(), st.lists(st.text(), min_size=5, max_size=5) | st.none())
@example(build_game(5, {0b10110: Fraction(-7, 3), 0b11111: 2}), _AWKWARD_LABELS)
@example(TUGame(3, (0,) * 8), None)  # every worth omitted: "worths": {}
@example(TUGame(2, (0,) * 4), ("", "x"))
@example(build_game(1, {0b1: Fraction(1, 2)}), None)
@example(build_game(1, {}), ("solo",))
@example(parse_game_file(_FERMAT3.read_bytes()), None)  # past SCALE_CAP
def test_serialise_game_is_json_dumps_indent_2(v, labels):
    if labels is not None:
        v = TUGame.from_scaled(v.n, *v.scaled, labels[:v.n])
    assert serialise_game(v) == json.dumps(game_doc(v), indent=2) + "\n"


# JSON-like values as the CLI documents hold them, and then some: strings
# json must escape, ints of any size and sign, bools, None, and lists,
# tuples and dicts nested in each other, empty ones included.
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60)
    | st.text() | st.sampled_from(_AWKWARD_LABELS + ("\x00\x1f\x7f\u2028", "/"))
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS, st.sampled_from(["", "  ", "      "]))
@example([], "")
@example({}, "  ")
@example({"a": [], "b": {}, "c": ()}, "")
@example(list(_AWKWARD_LABELS), "")
@example({label: [label, 10**40, -(10**40)] for label in _AWKWARD_LABELS}, "  ")
@example(("x", ["y", None, True, False, 0, -1]), "")
@example([[[]], [{}], ({"k": ("v",)},)], "    ")
def test_json_text_is_json_dumps_indent_2(doc, pad):
    # Nested at a depth, every line after the first is indented by pad more.
    expected = json.dumps(doc, indent=2)
    assert gamefile._json_text(doc) == expected
    assert gamefile._json_text(doc, pad) == expected.replace("\n", "\n" + pad)


@pytest.mark.parametrize("doc", [
    0.5, float("nan"), [1, 2.0], {"a": [-0.0]}, ("x", 1e300),
    {1: "a"}, {"a": {None: 1}}, {("k",): 1}, {"a": 1, True: 2},
    Fraction(1, 2), b"bytes", {"s"},
])
def test_json_text_refuses_floats_and_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        gamefile._json_text(doc)


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
        pytest.param(
            3,
            "1," + "9" * 5000,  # past the 4300 digits int() converts
            f"coalition key '1,{'9' * 5000}' names player {'9' * 5000} of 3",
            id="5000-digit-player",
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


# ----- the input contract under fuzzing --------------------------------------

HUGE = "9" * 5000  # past Python's 4300-digit int conversion limit
HUGE_KEY_FILE = json.dumps({"players": 3, "worths": {"1," + HUGE: 2}})


class Raw(str):
    """A JSON token written out as it is, such as a number no float holds."""


class Obj(tuple):
    """A JSON object as its (key, value) pairs, in order, duplicates kept."""


def _dump(x) -> str:
    if isinstance(x, Raw):
        return str(x)
    if isinstance(x, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_dump, x)) + "]"
    return json.dumps(x)


_TOP_KEYS = st.sampled_from(["players", "labels", "worths", "worths_by_mask"])
_RAW_TOKENS = st.sampled_from([
    Raw(HUGE), Raw("-" + HUGE), Raw("1e99999"), Raw("1.5e-3"), Raw("-0.0"),
    Raw("NaN"), Raw("-Infinity"),
])
# Integers stay out of 5 .. 20, so no drawn player count builds a table of
# more than 16 worths.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 4), st.integers(21, 10**30),
    st.floats(), st.text(max_size=6), _RAW_TOKENS,
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.tuples(st.text(max_size=6) | _TOP_KEYS, inner), max_size=4).map(Obj),
    max_leaves=12,
)
# Literals just outside the grammar, and huge ones.
_OUTSIDE_LITERALS = st.sampled_from([
    "", " 1", "1 ", "1/0", "1/-2", ".5", "5.", "1e", "1_000", "0x10", "١", "+-1",
    "1//2", "nan", "inf", "1e5000", "1/" + HUGE, HUGE, "-" + HUGE,
])
_GOOD_WORTHS = st.one_of(_GRAMMAR_LITERALS, st.integers(-(10**6), 10**6))
_BAD_WORTHS = st.one_of(_OUTSIDE_LITERALS, _JSON)
_BAD_KEYS = st.sampled_from([
    "1," + HUGE, HUGE, "99999999999999999999999", "0", "01", "-1", "1,1", "2,1",
    "1, 2", "", "a", "1١", "1\n", "5", "1,2,3,4,5",
])
_MUTATIONS = st.sampled_from([
    "drop", "duplicate", "retype", "extra", "bad worth", "bad key", "repeat key", "cut",
])


@st.composite
def game_texts(draw) -> str:
    """A valid game file of up to four players with up to two mutations, or
    arbitrary JSON."""
    if draw(st.integers(0, 4)) == 4:
        return _dump(draw(_JSON))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=8))
        entries = [
            [",".join(str(i + 1) for i in range(n) if S >> i & 1), draw(_GOOD_WORTHS)]
            for S in masks
        ]
        table = ["worths", entries]
    else:
        entries = [0] + [draw(_GOOD_WORTHS) for _ in range((1 << n) - 1)]
        table = ["worths_by_mask", entries]
    pairs = [["players", n], table]
    if draw(st.booleans()):
        pairs.append(["labels", [f"p{i}" for i in range(n)]])
    sparse, cut = table[0] == "worths", False
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        mutation = draw(_MUTATIONS)
        if mutation == "cut":
            cut = True
        elif mutation == "extra" or not pairs:
            pairs.append([draw(st.text(max_size=6) | _TOP_KEYS), draw(_JSON)])
        elif mutation in ("drop", "duplicate", "retype"):
            k = draw(st.integers(0, len(pairs) - 1))
            if mutation == "drop":
                del pairs[k]
            elif mutation == "duplicate":
                pairs.append(pairs[k])
            else:
                pairs[k] = [pairs[k][0], draw(_JSON)]
        elif mutation == "bad key" and sparse:
            entry = [draw(_BAD_KEYS), draw(_GOOD_WORTHS)]
            entries.insert(draw(st.integers(0, len(entries))), entry)
        elif mutation == "bad worth" and entries:
            j, bad = draw(st.integers(0, len(entries) - 1)), draw(_BAD_WORTHS)
            entries[j] = [entries[j][0], bad] if sparse else bad
        elif mutation == "repeat key" and sparse and entries:
            entries.append(entries[draw(st.integers(0, len(entries) - 1))])
        elif not sparse:  # one entry too many
            entries.append(draw(_GOOD_WORTHS))
    if sparse:
        table[1] = Obj(map(tuple, entries))
    text = _dump(Obj(map(tuple, draw(st.permutations(pairs)))))
    if cut:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


@settings(max_examples=500, deadline=None)
@given(game_texts())
@example(HUGE_KEY_FILE)
def test_parse_game_file_raises_only_package_errors(text):
    try:
        parse_game_file(text)
    except CoopvalsError:
        pass


@settings(max_examples=250, deadline=None)
@given(text=game_texts())
@example(text=HUGE_KEY_FILE)
def test_report_on_any_file_exits_0_1_or_2(tmp_path_factory, text):
    # The user sees the error parse_game_file raises, with its exit code.
    try:
        parse_game_file(text)
        expected = None
    except CoopvalsError as exc:
        expected = exc
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--game", str(path)])
    if expected is None:
        assert code == 0 or err.getvalue().startswith("error: a result has more than")
    elif isinstance(expected, DomainError):
        assert (code, out.getvalue(), err.getvalue()) == (1, f"{expected}\n", "")
    else:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected}\n")


# ----- the bulk reader against the per-literal one ---------------------------

# JSON number tokens, with or without a fraction and an exponent.
_JSON_NUMBERS = st.builds(
    lambda sign, whole, decimals, exponent: Raw(f"{sign}{whole}{decimals}{exponent}"),
    st.sampled_from(["", "-"]),
    st.integers(0, 10**6),
    st.one_of(st.just(""), _DIGITS.map(lambda d: "." + d)),
    st.one_of(st.just(""), _EXPONENTS),
)
# What the bulk reader takes: JSON ints, and integer and "p/q" strings.
_PLAIN_WORTHS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(lambda s, p: s + p, _SIGNS, _DIGITS),
    st.builds(lambda s, p, q: f"{s}{p}/{q}", _SIGNS, _DIGITS, _DENOMINATORS),
)
_MIXED_WORTHS = st.one_of(_PLAIN_WORTHS, _GRAMMAR_LITERALS, _JSON_NUMBERS)
_PLAIN_ZEROS = st.sampled_from([0, "0", "-0", "+0/7"])
_ZEROS = _PLAIN_ZEROS | st.sampled_from(["0.0", "0e5", Raw("0.0"), Raw("-0e3")])


def _value(x) -> Fraction:
    """What a JSON int, string or Raw number token spells."""
    return Fraction(x if isinstance(x, str) else str(x))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    plain=st.booleans(),
    dense=st.booleans(),
    data=st.data(),
)
def test_a_table_reads_as_the_fraction_of_each_literal(n, plain, dense, data):
    worths = _PLAIN_WORTHS if plain else _MIXED_WORTHS
    expected = [Fraction(0)] * (1 << n)
    if dense:
        zero = data.draw(_PLAIN_ZEROS if plain else _ZEROS)
        values = [zero] + [data.draw(worths) for _ in range((1 << n) - 1)]
        expected = list(map(_value, values))
        table = ("worths_by_mask", values)
    else:
        masks = data.draw(st.permutations(range(1, 1 << n)))
        masks = masks[: data.draw(st.integers(0, len(masks)))]
        entries = []
        for S in masks:
            entries.append((
                ",".join(str(i + 1) for i in range(n) if S >> i & 1), data.draw(worths)
            ))
            expected[S] = _value(entries[-1][1])
        table = ("worths", Obj(entries))
    v = parse_game_file(_dump(Obj([("players", n), table])))
    assert v.worths == tuple(expected)
    if plain and dense:  # read by the bulk reader, not the per-literal one
        L, W = gamefile._plain_scaled(values)
        assert [Fraction(w, L) for w in W] == expected


@pytest.mark.parametrize(
    "bad, message",
    [
        ('"1/0"', "'1/0' is not a rational literal"),
        ('"5/"', "'5/' is not a rational literal"),
        ('"/5"', "'/5' is not a rational literal"),
        ('"+"', "'+' is not a rational literal"),
        ('"1/2/3"', "'1/2/3' is not a rational literal"),
        ('"1/+2"', "'1/+2' is not a rational literal"),
        ('"1-2"', "'1-2' is not a rational literal"),
        ('" 1"', "' 1' is not a rational literal"),
        ('"1_000"', "'1_000' is not a rational literal"),
        ('"\u0661"', "'\u0661' is not a rational literal"),
        ('"' + "9" * 1001 + '"', "literal longer than 1000 characters"),
        ('"1e5000"', "literal longer than 1000 characters"),
        ("true", "expected a rational, got a boolean"),
        ("null", "expected a rational, got NoneType"),
        ("[1]", "expected a rational, got list"),
    ],
)
@pytest.mark.parametrize("dense", [True, False], ids=["worths_by_mask", "worths"])
def test_the_first_bad_literal_of_a_plain_table_is_named(bad, message, dense):
    # Every other literal is plain, and the one after the bad one is bad
    # too, so the table goes to the bulk reader first; the error is the one
    # the per-literal reader raises for the first bad literal.
    literals = ['"1"', '"2/3"', "4", '"-5/6"', bad, '"abc"', '"7"']
    if dense:
        text = '{"players": 3, "worths_by_mask": [0, %s]}' % ", ".join(literals)
        place = "worths_by_mask[5]"
    else:
        keys = ["1", "2", "3", "1,3", "1,2", "2,3", "1,2,3"]
        body = ", ".join(f'"{k}": {w}' for k, w in zip(keys, literals))
        text = '{"players": 3, "worths": {%s}}' % body
        place = "worths['1,2']"
    with pytest.raises(ParseError) as err:
        parse_game_file(text)
    assert str(err.value) == f"{place}: {message}"


@pytest.mark.parametrize("n", range(1, 8))
def test_a_canonical_file_reads_the_same_by_either_reader(n):
    v = TUGame(n, [0] + [Fraction(S * S - 3, S % 7 + 1) for S in range(1, 1 << n)])
    table = game_doc(v)["worths"]
    assert gamefile._listed_by_mask(table, n) is not None
    pairs = gamefile._sparse_pairs(table, n)
    assert parse_game_file(serialise_game(v)) == v == TUGame(n, map(Fraction, *zip(*pairs)))


# What the bulk reader takes among strings: an integer or "p/q" with q > 0.
_PLAIN_LITERAL = re.compile(r"[-+]?[0-9]+(/[0-9]*[1-9][0-9]*)?")


# Strings of up to 6 characters over the reader's alphabet: drawn freely,
# and as a sign, digits, a "/" and a tail, so that near misses such as
# "5/", "/5", "-" and "1/-2" come up often.
_PLAIN_ALPHABET_TEXTS = st.text("0123456789+-/", max_size=6) | st.builds(
    lambda sign, p, slash, q: sign + p + slash + q,
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=2),
    st.sampled_from(["", "/"]),
    st.text("0123456789+-/", max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        _PLAIN_ALPHABET_TEXTS | st.integers(-(10**6), 10**6) | st.booleans(),
        max_size=8,
    )
)
@example(["5/"])
@example(["1", "5/", 2])
@example(["-0/07", "+3", 4, "/5"])
def test_the_bulk_reader_takes_exactly_integer_and_ratio_literals(values):
    plain = not any(
        type(x) is bool or type(x) is str and not _PLAIN_LITERAL.fullmatch(x)
        for x in values
    )
    # Eight denominators below 10^5 have an lcm far below SCALE_CAP.
    expected = _scale([gamefile._to_pair(x, "test") for x in values]) if plain else None
    assert gamefile._plain_scaled(values) == expected


def test_chunks_over_different_denominators_join_over_their_lcm():
    # Only the last chunk holds ratios, so every chunk before it, the first
    # 4096 literals among them, is read over 1 and brought to 14.
    values = ["0"] + [str(S % 11 - 5) for S in range(1, 1 << 13)]
    values[-3], values[-2] = "1/7", "-3/14"
    text = json.dumps({"players": 13, "worths_by_mask": values})
    v = parse_game_file(text)
    assert gamefile._plain_scaled(values) == (14, list(v.scaled[1]))
    assert v.worths == tuple(map(Fraction, values))


def test_chunks_whose_lcm_passes_the_scale_cap_go_to_the_per_literal_reader():
    # The primes nearest 2^200, one in the first chunk and one in the last:
    # neither passes SCALE_CAP alone, their product does.
    p, q = 2**200 - 75, 2**200 + 235
    assert pow(3, p - 1, p) == 1 == pow(3, q - 1, q)
    assert max(p, q) <= SCALE_CAP < p * q
    values = ["0"] + [str(S % 11 - 5) for S in range(1, 1 << 13)]
    values[1], values[-1] = f"1/{p}", f"-2/{q}"
    assert gamefile._plain_scaled(values) is None
    v = parse_game_file(json.dumps({"players": 13, "worths_by_mask": values}))
    assert v.scaled == (1, tuple(map(Fraction, values)))


@pytest.mark.parametrize(
    "n",
    [
        14,
        pytest.param(20, marks=pytest.mark.skipif(
            os.environ.get("COOPVALS_SLOW_TESTS") != "1",
            reason="set COOPVALS_SLOW_TESTS=1 to run the 20-player round trip",
        )),
    ],
)
def test_a_sampled_convex_file_round_trips_at_scale(n):
    # At n = 14 the table spans 2^14 / _CHUNK chunks of the bulk reader.
    config = SamplerConfig(n_min=n, n_max=n, class_filter="convex", count=1, seed=0)
    (v,) = sample_games(config)
    text = serialise_game(v)
    assert serialise_game(parse_game_file(text)) == text
