"""Game layer: construction, validation, transforms, classification."""

import importlib
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracles
from conftest import g_a, games
from coopvals import (
    CoopvalsError,
    DuplicateCoalition,
    EmptyBaseCoalition,
    InvalidPlayerIndex,
    NonPositiveScale,
    NonzeroEmptyCoalition,
    ParseError,
    PlayerCountExceeded,
    TooFewPlayers,
    TUGame,
    additive_game,
    base_game,
    build_game,
    check_axiom,
    check_translation_covariance,
    classify,
    coalition,
    compromise,
    constant_lower,
    dual,
    individual_worths,
    members,
    player_cap,
    subtract_allocation,
    transform,
    unanimity_game,
    worth,
    zero_normalise,
)
from coopvals.game import as_fraction, coalition_total


def test_tugame_validation():
    with pytest.raises(TooFewPlayers):
        TUGame(0, (Fraction(0),))
    with pytest.raises(PlayerCountExceeded):
        TUGame(21, (Fraction(0),) * (1 << 21))
    with pytest.raises(CoopvalsError):
        TUGame(2, (Fraction(0), Fraction(1)))
    with pytest.raises(NonzeroEmptyCoalition):
        TUGame(1, (Fraction(1), Fraction(2)))
    with pytest.raises(CoopvalsError):
        TUGame(2, (Fraction(0),) * 4, labels=("a",))


def test_tugame_coerces_and_exposes():
    v = TUGame(2, (0, 1, "3/2", 2))
    assert v.worths == (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2))
    assert v.grand == 0b11
    assert v.total == Fraction(2)
    assert v.worth(0b01) == 1
    assert worth(v, 0b10) == Fraction(3, 2)


def test_int_and_fraction_worths_build_no_fraction(monkeypatch):
    ints = [S.bit_count() ** 2 for S in range(1 << 6)]
    fractions = [Fraction(w, 6) for w in ints]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    by_int, by_fraction = TUGame(6, ints), TUGame(6, fractions)
    assert not made
    assert by_int.scaled == (1, tuple(ints))
    assert by_fraction.scaled == (6, tuple(ints))
    assert by_fraction == TUGame(6, map(str, fractions))
    assert by_int.worths == tuple(ints)


def test_player_cap_env(monkeypatch):
    monkeypatch.setenv("COOPVALS_MAX_PLAYERS", "4")
    assert player_cap() == 4
    with pytest.raises(PlayerCountExceeded):
        TUGame(5, (Fraction(0),) * 32)
    monkeypatch.setenv("COOPVALS_MAX_PLAYERS", "banana")
    with pytest.raises(CoopvalsError):
        player_cap()


def test_coalition_helpers():
    assert coalition([0, 2]) == 0b101
    assert members(0b101) == (0, 2)
    with pytest.raises(InvalidPlayerIndex):
        coalition([-1])


@pytest.mark.parametrize("S", [-1, -0b101, -(1 << 70)])
def test_a_negative_coalition_is_refused(S):
    # A negative mask has infinitely many set bits in two's complement.
    with pytest.raises(InvalidPlayerIndex):
        members(S)
    with pytest.raises(InvalidPlayerIndex):
        coalition_total((Fraction(1),) * 3, S)


@pytest.mark.parametrize("text", ["1/0", "abc"])
def test_a_bad_rational_text_raises_parse_error(text, g6):
    with pytest.raises(ParseError, match="is not a rational literal"):
        as_fraction(text)
    with pytest.raises(ParseError):
        TUGame(1, (0, text))
    with pytest.raises(ParseError):
        build_game(2, {0b01: text})
    with pytest.raises(ParseError):
        transform(g6, text, (0, 0, 0))
    with pytest.raises(ParseError):
        transform(g6, 1, (0, text, 0))
    with pytest.raises(ParseError):
        compromise(g6, (0, 0, text), (1, 1, 1))


def test_build_game_entries():
    v = build_game(2, [(0b01, 1), (0b11, "5/2")])
    assert v.worths == (Fraction(0), Fraction(1), Fraction(0), Fraction(5, 2))
    with pytest.raises(DuplicateCoalition):
        build_game(2, [(0b01, 1), (0b01, 2)])
    with pytest.raises(NonzeroEmptyCoalition):
        build_game(2, {0: 1})
    # explicit zero for the empty coalition is allowed
    assert build_game(2, {0: 0, 0b11: 3}).total == 3
    with pytest.raises(InvalidPlayerIndex):
        build_game(2, {0b100: 1})
    labelled = build_game(1, {0b1: 2}, labels=["solo"])
    assert labelled.labels == ("solo",)


def test_dual_table(g6):
    d = dual(g6)
    expected = build_game(
        3, {0b001: 2, 0b010: 2, 0b100: 2, 0b011: 6, 0b101: 7, 0b110: 7, 0b111: 8}
    )
    assert d.worths == expected.worths


@settings(max_examples=60, deadline=None)
@given(games())
def test_dual_is_an_involution(v):
    assert dual(dual(v)).worths == v.worths


@settings(max_examples=40, deadline=None)
@given(games(n_min=2, n_max=4))
def test_dual_matches_oracle(v):
    table = oracles.game_from_tugame(v)
    expected = oracles.dual_table(table)
    got = oracles.game_from_tugame(dual(v))
    assert got == expected


def test_zero_normalise_table(g6):
    z = zero_normalise(g6)
    assert individual_worths(z) == (0, 0, 0)
    assert z.worth(0b011) == 4
    assert z.worth(0b101) == 3
    assert z.worth(0b110) == 3
    assert z.total == 4


@settings(max_examples=60, deadline=None)
@given(games())
def test_zero_normalise_fixes_singletons(v):
    z = zero_normalise(v)
    assert all(x == 0 for x in individual_worths(z))
    assert zero_normalise(z).worths == z.worths


def test_transform_and_subtract(g6):
    w = transform(g6, Fraction(1, 2), (1, 1, 1))
    assert w.total == Fraction(7)
    assert w.worth(0b001) == Fraction(3, 2)
    with pytest.raises(NonPositiveScale):
        transform(g6, 0, (0, 0, 0))
    back = subtract_allocation(w, (1, 1, 1))
    assert back.worths == transform(g6, Fraction(1, 2), (0, 0, 0)).worths


def test_base_games():
    b = base_game(3, 0b011)
    assert b.worth(0b011) == 1 and b.worth(0b111) == 0 and b.worth(0b001) == 0
    u = unanimity_game(3, 0b011)
    assert u.worth(0b011) == 1 and u.worth(0b111) == 1 and u.worth(0b101) == 0
    a = additive_game((1, 2, 3))
    assert a.total == 6 and a.worth(0b101) == 4
    with pytest.raises(EmptyBaseCoalition):
        base_game(2, 0)
    with pytest.raises(EmptyBaseCoalition):
        unanimity_game(2, 0)


def test_classify_worked_games(g2, g6):
    r2 = classify(g2)
    assert r2.semi_balanced and r2.essential and r2.weakly_essential
    r6 = classify(g6)
    assert not r6.semi_balanced
    assert not r6.essential
    assert r6.weakly_essential
    assert r6.M_lower_class and not r6.M_upper_class
    assert r6.monotonic and r6.superadditive and not r6.convex


def test_classify_additive_and_unanimity(add123, u12):
    ra = classify(add123)
    assert ra.convex and ra.superadditive and ra.essential and ra.semi_balanced
    ru = classify(u12)
    assert ru.convex and ru.semi_balanced


@settings(max_examples=60, deadline=None)
@given(games(n_min=2, n_max=4))
def test_convexity_matches_oracle(v):
    assert classify(v).convex == oracles.is_convex(oracles.game_from_tugame(v))


@settings(max_examples=40, deadline=None)
@given(games(n_min=2, n_max=4))
def test_convex_implies_semi_balanced(v):
    report = classify(v)
    if report.convex:
        assert report.semi_balanced


_V = TUGame(2, (0, 1, 1, 4))

# Each entry point that takes a rational from the caller, called with x.
RATIONAL_INPUTS = {
    "TUGame": lambda x: TUGame(1, (0, x)),
    "build_game": lambda x: build_game(1, {1: x}),
    "additive_game": lambda x: additive_game((x, 1)),
    "transform-scale": lambda x: transform(_V, x, (0, 0)),
    "transform-shift": lambda x: transform(_V, 1, (x, 0)),
    "subtract_allocation": lambda x: subtract_allocation(_V, (x, 0)),
    "compromise": lambda x: compromise(_V, (x, 0), (4, 4)),
    "constant_lower": lambda x: constant_lower(x)(_V),
    "check_translation_covariance": lambda x: check_translation_covariance(
        "MarginalContributions", _V, (x, 0)
    ),
    "check_axiom-probe": lambda x: check_axiom("Covariance", "tau", _V, probe=(x, (0, 0))),
}


@pytest.mark.parametrize("call", RATIONAL_INPUTS.values(), ids=list(RATIONAL_INPUTS))
def test_binary_floats_are_refused(call):
    with pytest.raises(CoopvalsError, match="float 0.5"):
        call(0.5)
    assert call(Fraction(1, 2)) == call("1/2")


# Inputs that are neither rational numbers nor text, with the type the
# refusal names.
NOT_RATIONAL = {
    "None": (lambda: as_fraction(None), "NoneType"),
    "list": (lambda: as_fraction([1]), "list"),
    "complex": (lambda: as_fraction(1j), "complex"),
    "Decimal-Infinity": (lambda: as_fraction(Decimal("Infinity")), "Decimal"),
    "build_game": (lambda: build_game(2, {1: None}), "NoneType"),
    "compromise": (lambda: compromise(_V, [None, 0], [1, 1]), "NoneType"),
}


@pytest.mark.parametrize("call, kind", NOT_RATIONAL.values(), ids=list(NOT_RATIONAL))
def test_a_value_that_is_not_rational_is_refused(call, kind):
    with pytest.raises(CoopvalsError, match=f"int or str, got the {kind} "):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: TUGame("2", [0] * 4), "player count must be an int"),
        (lambda: build_game(2.0, {1: 1}), "player count must be an int"),
        (lambda: build_game(2, {"1": 1}), "coalition is an int bit pattern"),
        (lambda: unanimity_game(2, 1.5), "coalition is an int bit pattern"),
    ],
    ids=["TUGame-n", "build_game-n", "build_game-coalition", "unanimity_game-carrier"],
)
def test_a_player_count_or_coalition_that_is_not_an_int_is_refused(call, error):
    with pytest.raises(CoopvalsError, match=error) as raised:
        call()
    assert isinstance(raised.value, InvalidPlayerIndex) == ("coalition" in error)


def test_bools_still_count_as_ints():
    assert TUGame(True, (0, 1)).n == 1
    assert build_game(2, {True: 3}).worth(0b01) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: coalition([1.5]),
        lambda: members(1.5),
        lambda: coalition_total((Fraction(1),) * 3, 1.5),
        # The type is tested before the duplicate test, which would spell
        # the key with bin() or hash it.
        lambda: build_game(2, [("1", 1), ("1", 2)]),
        lambda: build_game(2, [([1], 1)]),
        # 0.0 == 0, but a float is no coalition, not even the empty one.
        lambda: build_game(2, {0.0: 0}),
    ],
    ids=["coalition", "members", "coalition_total", "build_game-repeated-str",
         "build_game-list", "build_game-float-empty"],
)
def test_a_coalition_or_player_that_is_not_an_int_is_refused(call):
    with pytest.raises(InvalidPlayerIndex, match="is an int"):
        call()


def test_bool_players_and_coalitions_still_count_as_ints():
    assert coalition([True, 0]) == 0b11
    assert members(True) == (0,)
    assert coalition_total((Fraction(2), Fraction(3)), True) == 2


@pytest.mark.parametrize(
    "name", ["game", "bounds", "values", "verify", "gamefile", "errors"]
)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition goes would break
    # `from coopvals.<name> import *`.
    module = importlib.import_module(f"coopvals.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from coopvals.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
