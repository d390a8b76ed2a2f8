"""Exact answers without the oracles: relabelling, and bankruptcy games.

Relabelling.  For a player permutation pi, (pi.v)(pi(S)) = v(S), and every
bound functional and every value is symmetric: f(pi.v) = pi.f(v), where
pi.x moves the component of player i to player pi(i).  This needs no
oracle, and it catches a sweep that reads the wrong bit of a coalition.

Bankruptcy games (O'Neill 1982).  An estate E is claimed by d with sum(d)
>= E, and v(S) = max(0, E - d(N - S)).  These games are convex, with
minimal rights m_i = max(0, E - d(N - i)) = v({i}) and marginal vector
M_i = min(d_i, E).  Tau is the adjusted proportional rule (Curiel,
Maschler & Tijs, "Bankruptcy games", Z. Oper. Res. 31, 1987); on a convex
game chi and KM equal tau, and Kikuta's bound is v({i}) and Milnor's is M,
so Gately is KM.  CIS, EANSC and PANSC follow from m and M directly.

Additive games v(S) = x(S): every value returns x where it is defined,
except egalitarian, which returns v(N)/n.  Symmetric games v(S) = f(|S|):
every value returns v(N)/n where it is defined.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import games
from coopvals import (
    REGISTRY,
    VALUES,
    CoopvalsError,
    SamplerConfig,
    TUGame,
    ValueResult,
    sample_games,
)
from coopvals.bounds import MU_FROM_MILNOR
from coopvals.game import additive_game, additive_table
from coopvals.gamefile import parse_game_file, serialise_game

FUNCTIONALS = (*REGISTRY.values(), MU_FROM_MILNOR)
FERMAT = [2 ** (2**k) + 1 for k in range(10)]
small_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


def relabel(v: TUGame, pi) -> TUGame:
    """pi.v, from one index map: image[S] = pi(S), built from S minus its
    lowest player."""
    image = [0] * (1 << v.n)
    for S in range(1, 1 << v.n):
        low = S & -S
        image[S] = image[S ^ low] | 1 << pi[low.bit_length() - 1]
    L, W = v.scaled
    table = [0] * len(W)
    for S, T in enumerate(image):
        table[T] = W[S]
    return TUGame.from_scaled(v.n, L, table)


def moved(x, pi) -> tuple:
    """pi.x: the component of player i at player pi(i)."""
    out = [None] * len(x)
    for i, c in enumerate(x):
        out[pi[i]] = c
    return tuple(out)


def _outcome(f, v):
    """f(v), or the type of the package error it raises."""
    try:
        return f(v)
    except CoopvalsError as exc:
        return type(exc)


def _convex_games(n_max):
    return st.builds(
        lambda n, seed: sample_games(SamplerConfig(
            n_min=n, n_max=n, class_filter="convex", count=1, seed=seed
        ))[0],
        st.integers(1, n_max),
        st.integers(0, 2**32),
    )


def _with_permutation(v):
    return st.tuples(st.just(v), st.permutations(range(v.n)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(games(n_min=1, n_max=6), _convex_games(6)).flatmap(_with_permutation))
# Fermat denominators: the common denominator passes SCALE_CAP, so every
# sweep runs on the Fractions.
@example((
    TUGame(3, (0, *(Fraction(k, FERMAT[9 - k % 3]) for k in range(1, 8)))),
    [2, 0, 1],
))
def test_functionals_and_values_commute_with_relabelling(drawn):
    v, pi = drawn
    w = relabel(v, pi)
    assert relabel(w, [pi.index(i) for i in range(v.n)]) == v
    for fn in FUNCTIONALS:
        here, there = _outcome(fn, v), _outcome(fn, w)
        if isinstance(here, tuple):
            assert there == moved(here, pi), fn.id
        else:
            assert there is here, fn.id
    for vid, f in VALUES.items():
        here, there = _outcome(f, v), _outcome(f, w)
        if not isinstance(here, ValueResult):
            assert there is here, vid
            continue
        assert there.allocation == moved(here.allocation, pi), vid
        assert there.lower_used == moved(here.lower_used, pi), vid
        assert there.upper_used == moved(here.upper_used, pi), vid
        assert (there.lam, there.route) == (here.lam, here.route), vid


def bankruptcy(estate: int, claims) -> TUGame:
    """v(S) = max(0, E - d(N - S)), with d(N - S) = sum(d) - d(S)."""
    short = sum(claims) - estate
    return TUGame(len(claims), [max(0, c - short) for c in additive_table(claims)])


def adjusted_proportional(estate, claims) -> tuple:
    """m + E' d' / sum(d'), for E' = E - sum(m) and d'_i = min(d_i - m_i, E')."""
    m = minimal_rights(estate, claims)
    rest = estate - sum(m)
    reduced = [min(c - r, rest) for c, r in zip(claims, m)]
    if rest == 0:
        return tuple(Fraction(r) for r in m)
    return tuple(r + Fraction(rest * c, sum(reduced)) for r, c in zip(m, reduced))


def minimal_rights(estate, claims) -> list:
    return [max(0, estate - (sum(claims) - c)) for c in claims]


def utopia(estate, claims) -> list:
    return [min(c, estate) for c in claims]


@st.composite
def bankruptcy_problems(draw):
    claims = draw(st.lists(st.integers(0, 20), min_size=2, max_size=8))
    return draw(st.integers(0, sum(claims))), claims


@settings(max_examples=60, deadline=None)
@given(bankruptcy_problems())
@example((10, [3, 3, 3, 3]))  # the estate exceeds every claim's rest: m > 0
@example((0, [0, 5]))  # nothing to divide
def test_bankruptcy_values_have_their_closed_forms(problem):
    estate, claims = problem
    v = bankruptcy(estate, claims)
    n = v.n
    m, M = minimal_rights(estate, claims), utopia(estate, claims)
    rule = adjusted_proportional(estate, claims)
    for vid in ("tau", "chi", "km", "gately"):
        assert VALUES[vid](v).allocation == rule, vid
    assert VALUES["cis"](v).allocation == tuple(
        r + Fraction(estate - sum(m), n) for r in m
    )
    assert VALUES["eansc"](v).allocation == tuple(
        c + Fraction(estate - sum(M), n) for c in M
    )
    pansc = tuple(Fraction(c * estate, sum(M)) if sum(M) else Fraction(0) for c in M)
    assert VALUES["pansc"](v).allocation == pansc


def _defined(v) -> dict:
    """{value id: allocation} for every value defined on v."""
    outcomes = {vid: _outcome(f, v) for vid, f in VALUES.items()}
    return {
        vid: out.allocation for vid, out in outcomes.items()
        if isinstance(out, ValueResult)
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(small_rationals, min_size=n, max_size=n)
))
@example([Fraction(0)])
def test_additive_games_return_their_vector(x):
    v = additive_game(x)
    allocations = _defined(v)
    assert "tau" in allocations  # m = M = x
    if "egal" in allocations:
        assert allocations.pop("egal") == (v.total / v.n,) * v.n
    for vid, allocation in allocations.items():
        assert allocation == tuple(x), vid


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(small_rationals, min_size=n, max_size=n)
))
# The majority game on five players.
@example([Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(1)])
def test_symmetric_games_split_the_grand_worth_equally(by_size):
    n = len(by_size)
    v = TUGame(n, [([0] + by_size)[S.bit_count()] for S in range(1 << n)])
    allocations = _defined(v)
    for vid, allocation in allocations.items():
        assert allocation == (v.total / n,) * n, vid


def test_bankruptcy_at_sixteen_players_through_the_game_file():
    # Claims 1..16 against an estate of 130: m_i = d_i - 6 for d_i > 6.
    claims = list(range(1, 17))
    v = parse_game_file(serialise_game(bankruptcy(130, claims)))
    rule = adjusted_proportional(130, claims)
    for vid in ("tau", "chi", "km", "gately"):
        assert VALUES[vid](v).allocation == rule, vid
    pi = [(5 * i + 3) % 16 for i in range(16)]
    assert VALUES["km"](relabel(v, pi)).allocation == moved(rule, pi)
