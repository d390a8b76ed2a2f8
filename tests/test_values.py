"""Compromise engine and the named values."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import g_a, games
from coopvals import (
    AXIOM_PAIRS,
    BoundOrderViolated,
    CoopvalsError,
    DegenerateBounds,
    DomainError,
    LBC_FAMILY,
    NonCovariantUpperBound,
    NotBalanced,
    NotRegularLowerBound,
    REGISTRY,
    SamplerConfig,
    TooFewPlayers,
    TUGame,
    VALUES,
    additive_game,
    build_game,
    chi,
    cis,
    compromise,
    constant_lower,
    dual,
    eansc,
    egalitarian,
    functional,
    gately,
    individual_worths,
    km,
    lbc_value,
    marginal_contributions,
    minimal_rights,
    pansc,
    sample_games,
    subtract_allocation,
    tau,
    ubc_value,
)
from coopvals.game import in_class
from coopvals.values import EANSC_ROUTES
from coopvals.verify import CLASS_FILTERS

F = Fraction


def test_compromise_basics(g6):
    r = compromise(g6, (1, 1, 2), (5, 5, 5))
    assert r.allocation == (F(27, 11), F(27, 11), F(34, 11))
    assert r.lam == F(4, 11)
    assert sum(r.allocation) == g6.total
    # coinciding bounds: lam is meaningless and omitted
    flat = compromise(g6, (3, 3, 2), (3, 3, 2))
    assert flat.allocation == (3, 3, 2)
    assert flat.lam is None


def test_compromise_rejects_bad_brackets(g6):
    with pytest.raises(BoundOrderViolated) as err:
        compromise(g6, (6, 1, 2), (5, 5, 5))
    assert "player 1" in str(err.value)
    # Bounds on different denominators: the message spells both sides reduced.
    with pytest.raises(BoundOrderViolated) as err:
        compromise(g6, (1, F(7, 2), 0), (F(4, 3), 3, 5))
    assert str(err.value) == "lower bound exceeds upper bound at player 2: 7/2 > 3"
    with pytest.raises(NotBalanced):
        compromise(g6, (3, 3, 3), (3, 3, 4))
    with pytest.raises(CoopvalsError):
        compromise(g6, (1, 1), (5, 5, 5))


def test_lbc_value_requires_regular_bound(g6):
    assert lbc_value(g6, constant_lower(0, id="Z")).allocation == egalitarian(g6).allocation
    with pytest.raises(NotRegularLowerBound):
        lbc_value(g6, "ConstantOne")


def test_ubc_value_family():
    expected = {
        6: (F(7, 3), F(7, 3), F(10, 3)),
        7: (F(13, 5), F(13, 5), F(14, 5)),
        8: (3, 3, 2),
    }
    for A, alloc in expected.items():
        r = ubc_value(g_a(A), "EtaPrime")
        assert r.allocation == alloc
    # the derived value coincides with CIS exactly on B_hat
    assert ubc_value(g_a(6), "EtaPrime").allocation == cis(g_a(6)).allocation
    assert ubc_value(g_a(8), "EtaPrime").allocation != cis(g_a(8)).allocation


def test_ubc_value_guards(g6):
    with pytest.raises(NonCovariantUpperBound):
        ubc_value(g6, "EtaTrivial")
    # v(12) = 11 exceeds eta'(12) = 10, so mu^eta_1 = 6 > eta'_1 = 5.
    with pytest.raises(BoundOrderViolated) as err:
        ubc_value(g_a(11), "EtaPrime")
    assert str(err.value) == "lower bound exceeds upper bound at player 1: 6 > 5"


def test_tau_on_worked_games(g2, g6):
    r = tau(g2)
    assert r.allocation == (F(3, 2), F(3, 2), 5)
    assert r.lower_used == (1, 1, 4)
    assert r.upper_used == (2, 2, 6)
    # g6 is not semi-balanced: m = (4, 4, 0) and M = (2, 2, 2).
    with pytest.raises(BoundOrderViolated) as err:
        tau(g6)
    assert str(err.value) == "lower bound exceeds upper bound at player 1: 4 > 2"
    # The bound-sum bracket sum(m) <= v(N) <= sum(M) does not make a game
    # semi-balanced: here m = (0, 0, 1) and M = (3, 3, 0), so m_3 > M_3.
    bracketed = build_game(3, {0b100: 1, 0b011: 3, 0b111: 3})
    m, M = minimal_rights(bracketed), marginal_contributions(bracketed)
    assert (m, M) == ((0, 0, 1), (3, 3, 0))
    assert sum(m) <= bracketed.total <= sum(M)
    assert not in_class(bracketed, "semi-balanced")
    with pytest.raises(BoundOrderViolated) as err:
        tau(bracketed)
    assert str(err.value) == "lower bound exceeds upper bound at player 3: 1 > 0"


def test_chi_and_km_on_worked_game(g6):
    for r in (chi(g6), km(g6)):
        assert r.allocation == (F(27, 11), F(27, 11), F(34, 11))
        assert r.lam == F(4, 11)
    assert chi(g6).lower_used == (1, 1, 2)
    assert km(g6).lower_used == (1, 1, 2)


def test_unanimity_values(u12):
    half = (F(1, 2), F(1, 2), 0)
    assert tau(u12).allocation == half
    assert chi(u12).allocation == half
    assert km(u12).allocation == half


def test_chi_requires_weak_essentiality():
    v = build_game(2, {0b01: 3, 0b10: 3, 0b11: 4})
    assert not in_class(v, "weakly-essential")
    with pytest.raises(NotBalanced) as err:
        chi(v)
    assert str(err.value) == "v(N) = 4 is outside the bound bracket [6, 6]"


def test_gately_worked_and_guards(g4, zero3):
    assert gately(g4).allocation == (2, 2, 4)
    assert gately(zero3).allocation == (0, 0, 0)
    crossing = build_game(
        3, {0b001: 0, 0b010: 0, 0b100: 3, 0b011: 5, 0b101: 2, 0b110: 2, 0b111: 5}
    )
    # nu_3 = 3 > M_3 = 1: the formula still lands inside the simplex
    assert gately(crossing).allocation == (2, 2, 1)
    with pytest.raises(BoundOrderViolated):
        compromise(crossing, individual_worths(crossing), marginal_contributions(crossing))
    degenerate = build_game(
        3, {0b001: 0, 0b010: 0, 0b100: 3, 0b011: 4, 0b101: 1, 0b110: 1, 0b111: 3}
    )
    with pytest.raises(DegenerateBounds):
        gately(degenerate)
    # sum(nu) = 4 > v(N) = 3 > sum(M) = 2: not essential, and the bracket
    # [sum(nu), sum(M)] is empty, so the text names both sides that fail.
    inessential = build_game(2, {0b01: 2, 0b10: 2, 0b11: 3})
    with pytest.raises(NotBalanced) as err:
        gately(inessential)
    assert str(err.value) == (
        "v(N) = 3 is below the lower bound sum 4 and above the upper bound sum 2"
    )


@pytest.mark.parametrize("pairs, text", [
    # nu = (5, 5, 5), M = (4, 4, 4): v(N) = 10 < sum(M) = 12 < sum(nu) = 15.
    ({1: 5, 2: 5, 4: 5, 3: 6, 5: 6, 6: 6, 7: 10},
     "v(N) = 10 is below the lower bound sum 15"),
    # nu = (1, 1, 1), M = (1/2, 1/2, 1/2): v(N) = 10 > sum(nu) = 3 > sum(M).
    ({1: 1, 2: 1, 4: 1, 3: Fraction(19, 2), 5: Fraction(19, 2), 6: Fraction(19, 2),
      7: 10},
     "v(N) = 10 is above the upper bound sum 3/2"),
    # A bracket that is not empty is printed, one point included.
    # nu = M = (1, 1, 1).
    ({1: 1, 2: 1, 4: 1, 3: 4, 5: 4, 6: 4, 7: 5},
     "v(N) = 5 is outside the bound bracket [3, 3]"),
])
def test_gately_names_the_side_of_the_bracket_that_fails(pairs, text):
    with pytest.raises(NotBalanced) as err:
        gately(build_game(3, pairs))
    assert str(err.value) == text


def test_pansc_worked_and_guards(g8):
    r = pansc(g8)
    assert r.allocation == (4, 4, 0)
    assert r.lam == 2
    # M = (-1, -1): the order of (0, M) is checked before the bracket.
    with pytest.raises(BoundOrderViolated) as err:
        pansc(build_game(2, {0b11: -1}))
    assert str(err.value) == "lower bound exceeds upper bound at player 1: 0 > -1"
    with pytest.raises(BoundOrderViolated) as err:
        pansc(build_game(2, {0b01: 2, 0b11: 1}))
    assert str(err.value) == "lower bound exceeds upper bound at player 2: 0 > -1"
    # M = (0, 0) >= 0 and v(N) < 0.
    with pytest.raises(NotBalanced) as err:
        pansc(build_game(2, {0b01: -1, 0b10: -1, 0b11: -1}))
    assert str(err.value) == "v(N) = -1 is outside the bound bracket [0, 0]"
    with pytest.raises(DegenerateBounds):
        pansc(build_game(2, {0b01: 1, 0b10: 1, 0b11: 1}))
    assert pansc(build_game(2, {})).allocation == (0, 0)


def test_eansc_routes(g2, g6):
    r = eansc(g6)
    assert r.allocation == (F(8, 3), F(8, 3), F(8, 3))
    assert r.route == "(M, eta^M)"
    assert eansc(g2).route == "(mu~, M)"
    both = eansc(additive_game((1, 2, 3)))
    assert both.route == "(mu~, M) and (M, eta^M)"
    assert eansc(build_game(1, {0b1: 5})).route == "(M, eta^M)"
    assert eansc(build_game(1, {0b1: 5})).allocation == (5,)


def test_cis_and_egalitarian(g6, g8):
    assert cis(g6).allocation == (F(7, 3), F(7, 3), F(10, 3))
    assert cis(g8).allocation == (F(7, 3), F(7, 3), F(10, 3))
    assert egalitarian(g6).allocation == (F(8, 3), F(8, 3), F(8, 3))
    # v(N) < 0: the zero lower bound exceeds the upper bound (v(N), v(N)).
    with pytest.raises(BoundOrderViolated) as err:
        egalitarian(build_game(2, {0b11: -2}))
    assert str(err.value) == "lower bound exceeds upper bound at player 1: 0 > -2"
    # sum(nu) = 6 > v(N) = 4: eta' = nu + (v(N) - sum(nu)) = (1, 1) < nu.
    with pytest.raises(BoundOrderViolated) as err:
        cis(build_game(2, {0b01: 3, 0b10: 3, 0b11: 4}))
    assert str(err.value) == "lower bound exceeds upper bound at player 1: 3 > 1"


def test_additive_game_values():
    x = (F(1), F(2), F(3))
    v = additive_game(x)
    for vid, fn in VALUES.items():
        alloc = fn(v).allocation
        if vid == "egal":
            assert alloc == (2, 2, 2)
        else:
            assert alloc == x, vid


def test_registry_consistency():
    assert set(AXIOM_PAIRS) == set(VALUES)
    assert LBC_FAMILY <= set(VALUES)
    for vid, fn in VALUES.items():
        assert callable(fn)
        assert fn.__name__ in (vid, "egalitarian")


@settings(max_examples=60, deadline=None)
@given(games(n_min=2, n_max=4))
def test_km_total_bracketed_and_self_dual(v):
    r = km(v)
    assert sum(r.allocation) == v.total
    for x, lo, hi in zip(r.allocation, r.lower_used, r.upper_used):
        assert min(lo, hi) <= x <= max(lo, hi)
    assert km(dual(v)).allocation == r.allocation


@settings(max_examples=60, deadline=None)
@given(games(n_min=2, n_max=3))
def test_tau_matches_oracle_when_defined(v):
    table = oracles.game_from_tugame(v)
    m, M = oracles.minimal_rights_vector(table), oracles.marginal_vector(table)
    try:
        r = tau(v)
    except (BoundOrderViolated, NotBalanced):
        # Refused exactly off the games on which (m, M) is bound-balanced;
        # semi-balancedness (m <= M) does not force sum(m) <= v(N).
        assert not _bound_balanced(m, M, v.total)
        return
    expected = oracles.tau_vector(table)
    assert list(r.allocation) == [expected[i + 1] for i in range(v.n)]


def _bound_balanced(lower, upper, total):
    """mu <= eta and sum(mu) <= v(N) <= sum(eta), for vectors keyed by player."""
    return all(lower[i] <= upper[i] for i in lower) and (
        sum(lower.values()) <= total <= sum(upper.values())
    )


def _oracle_pairs(table):
    """Each value's (mu, eta) built by the oracles, keyed like AXIOM_PAIRS."""
    players = oracles.players_of(table)
    total = table[frozenset(players)]
    kikuta, milnor = oracles.extreme_marginal_vectors(table)
    M = oracles.marginal_vector(table)
    nu = {i: table[frozenset({i})] for i in players}
    zero = {i: F(0) for i in players}
    return {
        "tau": (oracles.minimal_rights_vector(table), M),
        "chi": (oracles.mu_from_upper(table, milnor), milnor),
        "cis": (nu, {i: total - sum(nu.values()) + nu[i] for i in players}),
        "egal": (zero, {i: total for i in players}),
        "km": (kikuta, milnor),
        "gately": (nu, M),
        "pansc": (zero, M),
    }


def _int_game(worths):
    """The game with v(S) = worths[S] for the masks S of 1..2^n - 1."""
    return TUGame(len(worths).bit_length(), (F(0), *map(F, worths)))


@settings(max_examples=150, deadline=None)
@given(games(n_min=1, n_max=4, den=1))
# v(N) = sum(mu), mu != eta: for tau, chi and Gately, with m = nu = (3, 1, -1)
# and M = Milnor = (5, 2, 1).
@example(_int_game([3, 1, 2, -1, 1, -2, 3]))
# v(N) = sum(mu) for chi: sum(nu) = v(N) = 3 while Milnor = (2, 2, 1).
@example(_int_game([1, 1, 3, 1, 2, 2, 3]))
# v(N) = sum(eta), mu != eta: for PANSC, on the additive game x = (1, 2), and
# for egal with one player, (0, v(N)).
@example(_int_game([1, 2, 3]))
@example(_int_game([2]))
# mu = eta for tau on a game that is not additive: m = M = (1, 0, 2).
@example(_int_game([-1, 0, 1, 2, 3, 2, 3]))
def test_each_value_is_defined_exactly_on_its_bound_balanced_games(v):
    # tau, chi, cis, egal and km are compromise of their pair, so each is
    # defined exactly where the oracles' pair is bound-balanced.  Gately and
    # PANSC are defined there and beyond; EANSC and KM are total.
    table = oracles.game_from_tugame(v)
    for vid, (mu, eta) in _oracle_pairs(table).items():
        balanced = _bound_balanced(mu, eta, v.total)
        try:
            VALUES[vid](v)
            defined = True
        except DomainError:
            defined = False
        if vid in ("gately", "pansc"):
            assert defined or not balanced, vid
        else:
            assert defined == balanced, vid
    assert _bound_balanced(*_oracle_pairs(table)["km"], v.total)
    eansc(v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASS_FILTERS), st.integers(1, 5), st.integers(0, 2**32))
def test_named_values_match_the_construction_methods(class_filter, n, seed):
    # The paper's two construction methods, run through lbc_value and
    # ubc_value, rebuild tau, chi, CIS and the Egalitarian value: the same
    # allocation, weight and bounds, and the same games refused.
    config = SamplerConfig(n_min=n, n_max=n, class_filter=class_filter, count=5, seed=seed)
    constructions = {
        tau: lambda v: ubc_value(v, "MarginalContributions"),
        chi: lambda v: ubc_value(v, "MilnorUpper"),
        cis: lambda v: lbc_value(v, "IndividualWorths"),
        egalitarian: lambda v: lbc_value(v, "ZeroLower"),
    }
    for v in sample_games(config):
        for named, built in constructions.items():
            sides = []
            for f in (named, built):
                try:
                    r = f(TUGame(v.n, v.worths))
                except DomainError:
                    sides.append(None)
                else:
                    sides.append((r.allocation, r.lam, r.lower_used, r.upper_used))
            assert sides[0] == sides[1], named.__name__


# The identities below are proven, not re-derived on every call; these
# properties are where they are checked.


@settings(max_examples=80, deadline=None)
@given(games(n_min=1, n_max=4))
def test_gately_matches_engine_when_ordered(v):
    nu = individual_worths(v)
    M = marginal_contributions(v)
    assume(all(a <= b for a, b in zip(nu, M)))
    assume(sum(nu) <= v.total <= sum(M))
    assert gately(v).allocation == compromise(v, nu, M).allocation


@settings(max_examples=80, deadline=None)
@given(games(n_min=1, n_max=4))
def test_bracketed_gately_is_the_compromise_of_nu_and_M(v):
    # Gately on essential games with nu <= M is compromise(v, nu, M); the
    # engine refuses essential games with some nu_i > M_i.
    assume(in_class(v, "essential"))
    nu = individual_worths(v)
    M = marginal_contributions(v)
    if all(a <= b for a, b in zip(nu, M)):
        assert compromise(v, nu, M, value_id="gately") == gately(v)
    else:
        with pytest.raises(BoundOrderViolated):
            compromise(v, nu, M, value_id="gately")


@settings(max_examples=80, deadline=None)
@given(games(n_min=1, n_max=4, lo=0))
def test_pansc_matches_engine_inside_bracket(v):
    M = marginal_contributions(v)
    assume(all(c >= 0 for c in M))
    assume(0 <= v.total <= sum(M))
    zero = (F(0),) * v.n
    assert pansc(v).allocation == compromise(v, zero, M).allocation


@settings(max_examples=60, deadline=None)
@given(games(n_min=1, n_max=4))
def test_lbc_closed_form_and_regularity(v):
    checked = 0
    for fn in REGISTRY.values():
        if fn.is_regular_lower is not True:
            continue
        try:
            mu = fn(v)
        except TooFewPlayers:
            continue
        # Outside B_l, sum(mu) > v(N), exactly when mu_1 > eta^mu_1.
        if sum(mu) > v.total:
            with pytest.raises(BoundOrderViolated):
                lbc_value(v, fn)
            continue
        r = lbc_value(v, fn)
        residual = (v.total - sum(mu)) / v.n
        assert r.allocation == tuple(m + residual for m in mu), fn.id
        assert fn(subtract_allocation(v, mu)) == (0,) * v.n, fn.id
        checked += 1
    # the zero lower bound is in class whenever v(N) >= 0
    assert checked > 0 or v.total < 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASS_FILTERS), st.integers(1, 4), st.integers(0, 2**32))
def test_every_value_reports_its_declared_pair(class_filter, n, seed):
    # The pair a value computes through is the pair values declares for it:
    # AXIOM_PAIRS, and for EANSC the first route in EANSC_ROUTES covering v.
    config = SamplerConfig(n_min=n, n_max=n, class_filter=class_filter, count=5, seed=seed)
    for v in sample_games(config):
        for vid, f in VALUES.items():
            try:
                r = f(v)
            except DomainError:
                continue
            pair = AXIOM_PAIRS[vid]
            if vid == "eansc":
                pair = next(p for p, covers in EANSC_ROUTES.values() if covers(v))
            declared = tuple(functional(fn)(v) for fn in pair)
            assert (r.lower_used, r.upper_used) == declared, vid


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASS_FILTERS), st.integers(1, 4), st.integers(0, 2**32))
def test_every_result_is_its_mixture(class_filter, n, seed):
    # ValueResult stores what the value gives it; the mixture identity and
    # efficiency of every defined result are checked here.
    config = SamplerConfig(n_min=n, n_max=n, class_filter=class_filter, count=5, seed=seed)
    for v in sample_games(config):
        for vid, f in VALUES.items():
            try:
                r = f(v)
            except DomainError:
                continue
            lower, upper, lam = r.lower_used, r.upper_used, r.lam
            if lam is None:
                assert r.allocation == lower == upper, vid
            else:
                mix = tuple(m + lam * (u - m) for m, u in zip(lower, upper))
                assert r.allocation == mix, vid
            assert sum(r.allocation) == v.total, vid
