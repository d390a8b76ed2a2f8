"""Bound functionals, derived bounds, pair checks, membership."""

from dataclasses import fields
from fractions import Fraction
from operator import ge, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import g_a, games
from coopvals import (
    CoopvalsError,
    NonCovariantUpperBound,
    NotInClass,
    TooFewPlayers,
    UnknownBoundFunctional,
    BoundPairReport,
    CheckOutcome,
    REGISTRY,
    Witness,
    build_game,
    check_bound_pair,
    check_translation_covariance,
    constant_lower,
    derived_lower_from_upper,
    derived_upper_from_lower,
    eansc_tilde_lower,
    eta_from_lower,
    eta_from_m,
    eta_prime,
    eta_trivial,
    evaluate_bound,
    functional,
    individual_worths,
    is_regular_lower,
    is_strongly_upper_bounded,
    kikuta_lower,
    marginal_contributions,
    membership,
    milnor_upper,
    minimal_rights,
    mu_from_upper,
    transform,
    unanimity_game,
    zero_lower,
)
from coopvals.bounds import _translation_covariance, first_difference
from coopvals.game import _vector


def test_named_functionals_on_worked_games(g2, g6):
    assert marginal_contributions(g6) == (2, 2, 2)
    assert minimal_rights(g6) == (4, 4, 4)
    assert marginal_contributions(g2) == (2, 2, 6)
    assert minimal_rights(g2) == (1, 1, 4)
    assert kikuta_lower(g6) == (1, 1, 2)
    assert milnor_upper(g6) == (5, 5, 5)
    assert zero_lower(g6) == (0, 0, 0)
    assert eta_trivial(g6) == (8, 8, 8)
    assert eta_prime(g6) == (5, 5, 6)
    assert eta_from_m(g6) == (4, 4, 4)
    assert eansc_tilde_lower(g6) == (3, 3, 3)


def test_extreme_marginals_on_unanimity(u12):
    assert marginal_contributions(u12) == (1, 1, 0)
    assert kikuta_lower(u12) == (0, 0, 0)
    assert milnor_upper(u12) == (1, 1, 0)
    assert minimal_rights(u12) == (0, 0, 0)


def test_tilde_lower_two_players():
    v = build_game(2, {0b01: 1, 0b10: 1, 0b11: 4})
    assert eansc_tilde_lower(v) == (1, 1)
    with pytest.raises(TooFewPlayers):
        eansc_tilde_lower(build_game(1, {0b1: 3}))


@settings(max_examples=50, deadline=None)
@given(games(n_min=2, n_max=4))
def test_tilde_lower_defining_equations(v):
    # sum over j != i of mu~_j equals v(N - i), for every i
    mu = eansc_tilde_lower(v)
    total = sum(mu)
    for i in range(v.n):
        assert total - mu[i] == v.worth(v.grand ^ (1 << i))


@settings(max_examples=50, deadline=None)
@given(games(n_min=2, n_max=4))
def test_minimal_rights_matches_oracle(v):
    table = oracles.game_from_tugame(v)
    expected = oracles.minimal_rights_vector(table)
    got = minimal_rights(v)
    assert list(got) == [expected[i + 1] for i in range(v.n)]


@settings(max_examples=50, deadline=None)
@given(games())
def test_eta_from_lower_residual_identity(v):
    # sum eta^mu - v(N) = (n - 1)(v(N) - sum mu) for any lower vector
    mu = individual_worths(v)
    eta = eta_from_lower(v, mu)
    assert sum(eta) - v.total == (v.n - 1) * (v.total - sum(mu))
    for i in range(v.n):
        assert eta[i] == v.total - (sum(mu) - mu[i])


def test_mu_from_upper_family():
    for A in (6, 7, 8):
        v = g_a(A)
        assert mu_from_upper(v, "EtaPrime") == (A - 5, A - 5, 2)
    with pytest.raises(NonCovariantUpperBound):
        mu_from_upper(g_a(6), "EtaTrivial")


@settings(max_examples=50, deadline=None)
@given(games())
def test_mu_from_milnor_is_individual_worths(v):
    assert mu_from_upper(v, "MilnorUpper") == individual_worths(v)


@settings(max_examples=50, deadline=None)
@given(games())
def test_mu_from_marginals_dominates_singletons(v):
    mu = mu_from_upper(v, "MarginalContributions")
    nu = individual_worths(v)
    assert all(a >= b for a, b in zip(mu, nu))


def test_registry_and_lookup():
    assert functional("KikutaLower").is_translation_covariant
    assert functional("ZeroLower").is_regular_lower
    assert not functional("ZeroLower").is_translation_covariant
    assert functional("MilnorUpper").is_regular_lower is None
    with pytest.raises(UnknownBoundFunctional):
        functional("NoSuchBound")
    fn = functional("EtaPrime")
    assert functional(fn) is fn
    assert evaluate_bound(g_a(6), "EtaPrime") == (5, 5, 6)
    assert set(REGISTRY) >= {
        "MarginalContributions",
        "MinimalRights",
        "KikutaLower",
        "MilnorUpper",
        "IndividualWorths",
        "ZeroLower",
        "EtaTrivial",
        "EtaPrime",
        "EanscTildeLower",
        "EtaFromM",
        "ConstantOne",
    }


def test_derived_functionals(g6):
    up = derived_upper_from_lower("IndividualWorths")
    assert up.id == "EtaFrom(IndividualWorths)"
    assert up(g6) == eta_prime(g6)
    low = derived_lower_from_upper("MilnorUpper")
    assert low.id == "MuFrom(MilnorUpper)"
    assert low(g6) == individual_worths(g6)
    assert low.is_regular_lower
    with pytest.raises(NonCovariantUpperBound):
        derived_lower_from_upper("EtaTrivial")


def test_constant_lower_factory(g6):
    one = constant_lower(1)
    assert one.id == "Constant(1)"
    assert one(g6) == (1, 1, 1)
    zero = constant_lower(0, id="ConstantZero")
    assert zero.id == "ConstantZero"
    assert zero.is_regular_lower
    assert not one.is_regular_lower


def test_check_results_are_read_off_their_witnesses():
    assert [f.name for f in fields(CheckOutcome)] == ["check_id", "witness"]
    assert [f.name for f in fields(BoundPairReport)] == [
        "mu_id", "eta_id", "witness_i", "witness_iia", "witness_iib",
    ]
    w_i, w_iia, w_iib = (Witness(k, (Fraction(k),), (Fraction(9),)) for k in range(3))
    assert CheckOutcome("x", None).passed
    assert not CheckOutcome("x", w_i).passed

    clean = BoundPairReport("mu", "eta")
    assert clean.passed and clean.witness is None
    assert clean.property_i_holds and clean.property_iia_holds
    assert clean.property_iib_holds
    # The report's witness is the first failure in the order (i), (ii-a), (ii-b).
    for stored, first in (
        ((w_i, w_iia, w_iib), w_i),
        ((None, w_iia, w_iib), w_iia),
        ((None, None, w_iib), w_iib),
    ):
        report = BoundPairReport("mu", "eta", *stored)
        assert not report.passed
        assert report.witness is first
        holds = (report.property_i_holds, report.property_iia_holds,
                 report.property_iib_holds)
        assert holds == tuple(w is None for w in stored)


def test_first_difference_finds_the_first_failing_component():
    lhs = (Fraction(1), Fraction(5), Fraction(3))
    rhs = (Fraction(1), Fraction(2), Fraction(4))
    assert first_difference(lhs, rhs) == Witness(1, lhs, rhs)
    assert first_difference(lhs, rhs, le) == Witness(1, lhs, rhs)
    assert first_difference(lhs, rhs, ge) == Witness(2, lhs, rhs)
    assert first_difference(lhs, lhs) is None
    assert first_difference(rhs, (Fraction(4),) * 3, le) is None
    with pytest.raises(CoopvalsError, match="rhs must have 2 components, got 3"):
        first_difference((1, 2), (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(games())
def test_km_pair_is_a_bound_pair_everywhere(v):
    report = check_bound_pair(v, "KikutaLower", "MilnorUpper")
    assert report.passed, (report.witness_i, report.witness_iia, report.witness_iib)


def test_trivial_pair_fails_iib_exactly(g6):
    report = check_bound_pair(g6, "IndividualWorths", "EtaTrivial")
    assert report.property_i_holds
    assert report.property_iia_holds
    assert not report.property_iib_holds
    assert report.witness_iib.lhs == (4, 4, 4)
    assert report.witness_iib.rhs == (7, 7, 6)


def test_constant_pair_fails_iia(g6):
    report = check_bound_pair(g6, "ConstantOne", "EtaTrivial")
    assert not report.property_iia_holds
    assert report.witness_iia.lhs == (1, 1, 1)


def test_regularity_checks(g6, zero3):
    bad = is_regular_lower(g6, "ConstantOne")
    assert not bad.passed
    assert bad.witness.lhs == (1, 1, 1)
    with pytest.raises(NotInClass):
        is_regular_lower(zero3, "ConstantOne")
    good = is_regular_lower(g6, "MarginalContributions")
    assert good.passed


def test_translation_covariance_probe(g6):
    ok = check_translation_covariance("MarginalContributions", g6, (1, 2, 3))
    assert ok.passed
    bad = check_translation_covariance("EtaTrivial", g6, (1, 2, 3))
    assert not bad.passed


@settings(max_examples=60, deadline=None)
@given(games(n_min=1, n_max=4), st.data())
def test_the_public_and_suite_covariance_checks_agree(v, data):
    # The suite checks every functional on one game v + x per game; the
    # public check builds its own.  With x nonzero, the three functionals
    # flagged not covariant fail whichever x is drawn (EtaTrivial from two
    # players on), so the expected-negative rows fail on every game.
    x = data.draw(st.lists(
        st.fractions(-6, 6, max_denominator=3), min_size=v.n, max_size=v.n
    ).filter(any))
    moved, pair = transform(v, 1, x), _vector(x, v.n)
    negatives = {fn.id for fn in REGISTRY.values() if not fn.is_translation_covariant}
    assert negatives == {"ZeroLower", "EtaTrivial", "ConstantOne"}
    for fn in REGISTRY.values():
        try:
            public = check_translation_covariance(fn, v, x).witness
        except TooFewPlayers:
            with pytest.raises(TooFewPlayers):
                _translation_covariance(fn, v, moved, pair)
            continue
        assert public == _translation_covariance(fn, v, moved, pair)
        if fn.id not in negatives:
            assert public is None
        elif fn.id != "EtaTrivial" or v.n >= 2:
            assert public is not None


def test_membership_family_flags():
    for A, expect in ((10, True), (11, False)):
        v = g_a(A)
        assert is_strongly_upper_bounded(v, eta_prime(v)) == expect
        report = membership(v, "IndividualWorths", "EtaPrime")
        assert report.in_strong_upper == expect
    for A, expect in ((6, True), (7, False)):
        report = membership(g_a(A), "IndividualWorths", "EtaPrime")
        assert report.in_b_hat == expect


def test_membership_proper_upper_none_for_noncovariant(g6):
    report = membership(g6, "ZeroLower", "EtaTrivial")
    assert report.in_proper_upper is None
    assert report.in_lower_class
    assert report.in_balanced


def test_membership_b_tilde(g6, g2):
    assert not membership(g6, "ZeroLower", "EtaTrivial").in_b_tilde
    assert membership(g2, "ZeroLower", "EtaTrivial").in_b_tilde
