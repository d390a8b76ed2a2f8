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

Duality.  For the dual game v*(S) = v(N) - v(N - S), player i's marginal
contributions in v* are those in v, over the complementary coalitions, so
Kikuta(v*) = Kikuta(v) and Milnor(v*) = Milnor(v); v*'s singleton worths
are M(v) and M(v*) is nu(v); and KM, the one self-dual value, has
KM(v*) = KM(v).  These run to n = 12, past the oracles' n = 10.

Strategic equivalence.  The game a.v + x, for a > 0 and an additive x, has
the marginal contributions and splits of v scaled by a and shifted by x, so
it is convex, or superadditive, exactly when v is.  Also to n = 12.

The certificates.  Convexity is first decided by the Harsanyi dividends
and superadditivity by the size profile of the worths; each falls back to
a walk.  Both verdicts, and the Kikuta and Milnor pairs that the marginal
pass keeps, are compared with the walks alone, the certificates switched
off, on every sampler filter and on the majority, weighted-majority,
unanimity and bankruptcy families, to n = 10.
"""

import os
import random
from fractions import Fraction

import pytest
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
    classify,
    dual,
    individual_worths,
    kikuta_lower,
    km,
    marginal_contributions,
    milnor_upper,
    sample_games,
    transform,
    unanimity_game,
)
from coopvals import game
from coopvals.bounds import MU_FROM_MILNOR
from coopvals.game import (
    _dividends_nonnegative, _marginal_pass, _superadditive, additive_game,
    additive_table, in_class,
)
from coopvals.gamefile import parse_game_file, serialise_game
from coopvals.verify import CLASS_FILTERS
from test_kernel import _fermat_convex

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


def _sampled_games(n_max, filters=CLASS_FILTERS):
    """One game of up to n_max players from the sampler, under one of the
    class filters."""
    return st.builds(
        lambda f, n, seed: sample_games(SamplerConfig(
            n_min=n, n_max=n, class_filter=f, count=1, seed=seed
        ))[0],
        st.sampled_from(filters),
        st.integers(1, n_max),
        st.integers(0, 2**32),
    )


def _with_permutation(v):
    return st.tuples(st.just(v), st.permutations(range(v.n)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(games(n_min=1, n_max=6), _sampled_games(6, ["convex"])).flatmap(
    _with_permutation
))
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


@st.composite
def duality_games(draw, n_max=12):
    """A game of 1 to n_max players: (w . 1_S)^2 / d + x(S), which is
    convex; the same with one worth moved; or arbitrary worths.  Up to n = 8
    the denominators may be Fermat numbers, whose lcm passes SCALE_CAP."""
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["convex", "nudged", "arbitrary"]))
    fermat = n <= 8 and draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def rational(lo, hi):
        q = FERMAT[rng.randrange(10)] if fermat else rng.randint(1, 4)
        return Fraction(rng.randint(lo, hi), q)

    if kind == "arbitrary":
        return TUGame(n, [0] + [rational(-20, 20) for _ in range(1, 1 << n)])
    w = [rng.randint(1, 9) for _ in range(n)]
    d = rng.randint(1, 6)
    x = additive_table([rational(-9, 9) for _ in range(n)])
    worths = [Fraction(s * s, d) + t for s, t in zip(additive_table(w), x)]
    if kind == "nudged":
        worths[rng.randrange(1, 1 << n)] += rational(-9, 9)
    return TUGame(n, worths)


@settings(max_examples=60, deadline=None)
@given(duality_games(), st.booleans())
def test_duality_laws_past_the_oracles(v, classified):
    # With classify first, the marginal pass of each game keeps its Kikuta
    # and Milnor pairs; without it, the bounds' own sweep does.
    w = dual(v)
    if classified:
        classify(v)
        classify(w)
    assert kikuta_lower(w) == kikuta_lower(v)
    assert milnor_upper(w) == milnor_upper(v)
    assert individual_worths(w) == marginal_contributions(v)
    assert marginal_contributions(w) == individual_worths(v)
    assert km(w).allocation == km(v).allocation


@settings(max_examples=60, deadline=None)
@given(
    duality_games().flatmap(lambda v: st.tuples(
        st.just(v),
        st.fractions(min_value=Fraction(1, 9), max_value=9).filter(bool),
        st.lists(small_rationals, min_size=v.n, max_size=v.n),
    ))
)
def test_convexity_and_superadditivity_survive_strategic_equivalence(drawn):
    v, a, x = drawn
    w = transform(v, a, x)
    for name in ("convex", "superadditive"):
        assert in_class(w, name) == in_class(v, name), name


def majority(n: int) -> TUGame:
    """v(S) = 1 iff S holds more than half of the n players."""
    return TUGame(n, [int(2 * S.bit_count() > n) for S in range(1 << n)])


def weighted_majority(weights, quota: int) -> TUGame:
    """v(S) = 1 iff the weights of S reach the quota."""
    return TUGame(len(weights), [int(t >= quota) for t in additive_table(weights)])


_FAMILIES = st.one_of(
    st.integers(1, 10).map(majority),
    st.lists(st.integers(1, 9), min_size=1, max_size=10).flatmap(
        lambda w: st.integers(1, sum(w)).map(lambda q: weighted_majority(w, q))
    ),
    st.integers(1, 10).flatmap(
        lambda n: st.integers(1, (1 << n) - 1).map(lambda T: unanimity_game(n, T))
    ),
    bankruptcy_problems().map(lambda problem: bankruptcy(*problem)),
)


def _decided(v):
    """(monotonic, convex), the Kikuta and Milnor pairs that pass keeps, and
    superadditive, on a copy of v with nothing decided yet."""
    w = TUGame.from_scaled(v.n, *v.scaled)
    return _marginal_pass(w), w.memo["extreme marginals"], _superadditive(w)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sampled_games(10), _FAMILIES, duality_games(n_max=10)))
# Past SCALE_CAP, on the Fractions.
@example(_fermat_convex(3))
# Convex, with a negative dividend: decided by the walk.
@example(bankruptcy(30, list(range(1, 9))))
def test_the_certificates_decide_as_the_walks_alone(v):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "_dividends_nonnegative", lambda W: False)
        patch.setattr(game, "_short_of_need", lambda W: range(3, len(W)))
        walked = _decided(v)
    assert _decided(v) == walked


def test_a_convex_game_with_a_negative_dividend_is_convex_through_the_walk():
    # The dividend of the players with claims 1 to 4 is -1.
    v = bankruptcy(30, list(range(1, 9)))
    assert not _dividends_nonnegative(v.scaled[1])
    assert classify(v).convex
    # Every convex game that the sampler draws passes the certificate.
    for u in sample_games(SamplerConfig(
        n_min=1, n_max=10, class_filter="convex", count=30, seed=5
    )):
        assert _dividends_nonnegative(u.scaled[1])


def test_bankruptcy_at_sixteen_players_through_the_game_file():
    # Claims 1..16 against an estate of 130: m_i = d_i - 6 for d_i > 6.
    claims = list(range(1, 17))
    v = parse_game_file(serialise_game(bankruptcy(130, claims)))
    rule = adjusted_proportional(130, claims)
    for vid in ("tau", "chi", "km", "gately"):
        assert VALUES[vid](v).allocation == rule, vid
    pi = [(5 * i + 3) % 16 for i in range(16)]
    assert VALUES["km"](relabel(v, pi)).allocation == moved(rule, pi)


# Opt-in: at n = 20 the table has 2^20 worths; the two cases take about
# 8 s and 400 MB at peak on a 2-CPU Linux machine.
@pytest.mark.skipif(
    os.environ.get("COOPVALS_SLOW_TESTS") != "1",
    reason="set COOPVALS_SLOW_TESTS=1 to run the 18- and 20-player games",
)
@pytest.mark.parametrize("n", [18, 20])
def test_bankruptcy_past_sixteen_players_through_the_game_file(n):
    # Claims 1..n against an estate 6 short of their sum: m_i = d_i - 6 for
    # d_i > 6, as at sixteen players.
    claims = list(range(1, n + 1))
    estate = sum(claims) - 6
    v = parse_game_file(serialise_game(bankruptcy(estate, claims)))
    # The marginal pass of classify keeps Kikuta's bound, here v({i}), and
    # Milnor's, here M_i = d_i, for the values below.
    assert classify(v).convex
    assert kikuta_lower(v) == tuple(max(0, d - 6) for d in claims)
    assert milnor_upper(v) == tuple(claims)
    rule = adjusted_proportional(estate, claims)
    for vid in ("tau", "chi", "km", "gately"):
        assert VALUES[vid](v).allocation == rule, vid
    pi = [(7 * i + 3) % n for i in range(n)]
    assert VALUES["km"](relabel(v, pi)).allocation == moved(rule, pi)
