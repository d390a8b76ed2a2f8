"""Axiom checks, samplers and the verification suite."""

import json
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopvals import values
from coopvals import (
    AXIOMS,
    CheckOutcome,
    CheckStats,
    CoopvalsError,
    DomainError,
    NotInClass,
    PreconditionNotMet,
    SamplerConfig,
    SamplerExhausted,
    SuiteReport,
    ValueResult,
    build_game,
    check_axiom,
    check_convex_coincidence,
    individual_worths,
    marginal_contributions,
    run_suite,
    run_suite_on_games,
    sample_games,
    subtract_allocation,
)
from coopvals.cli import _result_docs
from coopvals.gamefile import parse_game_file
from coopvals.verify import CLASS_FILTERS, _draw_pairs


def test_axiom_efficiency_and_minimal_rights(g2, g6):
    assert check_axiom("Efficiency", "tau", g2).passed
    assert check_axiom("MinimalRights", "km", g6).passed
    assert check_axiom("MinimalRights", "tau", g2).passed


def test_axiom_proportionality(g6):
    with pytest.raises(PreconditionNotMet):
        check_axiom("RestrictedProportionality", "km", g6)
    shifted = subtract_allocation(g6, (1, 1, 2))
    assert check_axiom("RestrictedProportionality", "km", shifted).passed
    with pytest.raises(PreconditionNotMet):
        check_axiom("EgalitarianDivision", "cis", g6)
    zeroed = subtract_allocation(g6, individual_worths(g6))
    assert check_axiom("EgalitarianDivision", "cis", zeroed).passed


def test_axiom_covariance(g2, g6):
    probe = ("1/2", (1, 2, 3))
    assert check_axiom("Covariance", "tau", g2, probe=probe).passed
    assert check_axiom("Covariance", "chi", g6, probe=probe).passed
    # the equal split ignores additive shifts, so the probe must expose it
    bad = check_axiom("Covariance", "egal", g6, probe=(1, (1, 0, 0)))
    assert not bad.passed
    assert bad.witness.component == 0


def test_axiom_self_duality(g6):
    assert check_axiom("SelfDuality", "km", g6).passed
    assert not check_axiom("SelfDuality", "cis", g6).passed


def test_axiom_individual_rationality(g2):
    assert check_axiom("IndividualRationality", "tau", g2).passed
    skinny = build_game(3, {0b001: 1})
    with pytest.raises(PreconditionNotMet):
        check_axiom("IndividualRationality", "km", skinny)


def test_axiom_unknown_ids(g6):
    with pytest.raises(CoopvalsError):
        check_axiom("Symmetry", "tau", g6)
    with pytest.raises(CoopvalsError):
        check_axiom("Efficiency", "shapley", g6)


def test_axiom_refusal_order():
    # v1 = v2 = 1 > v(N) = 0: outside every class guard of tau, chi and cis.
    crowded = build_game(2, {0b01: 1, 0b10: 1, 0b11: 0})
    with pytest.raises(CoopvalsError, match="unknown value id 'shapley'"):
        check_axiom("Symmetry", "shapley", crowded)
    # mu(v) != 0 is reported before the value is found undefined on v.
    for axiom_id, vid in (
        ("RestrictedProportionality", "tau"),
        ("RestrictedProportionality", "chi"),
        ("EgalitarianDivision", "cis"),
    ):
        with pytest.raises(DomainError) as caught:
            check_axiom(axiom_id, vid, crowded)
        assert caught.type is PreconditionNotMet
        assert str(caught.value) == f"mu(v) != 0 for {vid}"
    # A float probe is refused before cis is evaluated (and found undefined).
    with pytest.raises(CoopvalsError, match="float") as caught:
        check_axiom("Covariance", "cis", crowded, probe=(0.5, (0, 0)))
    assert caught.type is CoopvalsError
    # u_N with two players is weakly essential; its dual, with v*(i) = 1, is not.
    unanimity = build_game(2, {0b11: 1})
    with pytest.raises(PreconditionNotMet) as caught:
        check_axiom("SelfDuality", "chi", unanimity)
    assert str(caught.value) == (
        "dual game leaves the class of chi: "
        "v(N) = 1 is outside the bound bracket [2, 2]"
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLASS_FILTERS), st.integers(1, 4), st.integers(0, 2**32))
def test_check_axiom_reports_or_refuses(class_filter, n, seed):
    # Every axiom and value pair gives an outcome or a DomainError; nothing
    # else escapes.
    config = SamplerConfig(n_min=n, n_max=n, class_filter=class_filter, count=3, seed=seed)
    for v in sample_games(config):
        for axiom_id in AXIOMS:
            for vid in values.VALUES:
                try:
                    outcome = check_axiom(axiom_id, vid, v)
                except DomainError:
                    continue
                assert isinstance(outcome, CheckOutcome)
                assert outcome.check_id == f"axiom:{axiom_id}:{vid}"
                assert outcome.passed == (outcome.witness is None)


def test_convex_coincidence(g6, add123, u12):
    with pytest.raises(NotInClass):
        check_convex_coincidence(g6)
    assert check_convex_coincidence(add123).passed
    assert check_convex_coincidence(u12).passed


def test_sampler_config_validation():
    with pytest.raises(CoopvalsError):
        SamplerConfig(n_min=0)
    with pytest.raises(CoopvalsError):
        SamplerConfig(n_min=4, n_max=3)
    with pytest.raises(CoopvalsError):
        SamplerConfig(numerator_min=2, numerator_max=1)
    with pytest.raises(CoopvalsError):
        SamplerConfig(denominator_max=0)
    with pytest.raises(CoopvalsError):
        SamplerConfig(count=-1)
    with pytest.raises(CoopvalsError):
        SamplerConfig(retry_cap=0)
    with pytest.raises(CoopvalsError):
        SamplerConfig(class_filter="balanced-ish")


def test_sampler_is_deterministic():
    config = SamplerConfig(n_min=2, n_max=4, count=12, seed=99)
    a = sample_games(config)
    b = sample_games(config)
    assert [v.worths for v in a] == [v.worths for v in b]
    assert {v.n for v in a} <= {2, 3, 4}
    other = sample_games(SamplerConfig(n_min=2, n_max=4, count=12, seed=100))
    assert [v.worths for v in a] != [v.worths for v in other]


def test_sampler_filters_land_in_class():
    for v in sample_games(SamplerConfig(class_filter="zero-normalised", count=8, seed=1)):
        assert individual_worths(v) == (0,) * v.n
    for v in sample_games(SamplerConfig(class_filter="convex", count=8, seed=2)):
        assert oracles.is_convex(oracles.game_from_tugame(v))
    for v in sample_games(SamplerConfig(class_filter="essential", count=8, seed=3)):
        assert sum(individual_worths(v)) <= v.total <= sum(marginal_contributions(v))
    for v in sample_games(SamplerConfig(class_filter="M-lower", count=8, seed=4)):
        assert v.total >= sum(marginal_contributions(v))


def test_sampler_exhaustion():
    # constant worths at n = 2 can never satisfy the coalition-wise bound
    config = SamplerConfig(
        n_min=2,
        n_max=2,
        numerator_min=5,
        numerator_max=5,
        denominator_max=1,
        class_filter="semi-balanced",
        count=1,
        retry_cap=25,
    )
    with pytest.raises(SamplerExhausted):
        sample_games(config)


def test_check_stats_expected_negative_semantics():
    assert CheckStats("x", passed=5, failed=0, skipped=0).ok
    assert not CheckStats("x", passed=4, failed=1, skipped=0).ok
    neg = CheckStats("x", passed=5, failed=0, skipped=0, expected_negative=True)
    assert not neg.ok
    assert CheckStats("x", passed=4, failed=1, skipped=0, expected_negative=True).ok
    assert CheckStats("x", passed=0, failed=0, skipped=9, expected_negative=True).ok


def test_run_suite_end_to_end():
    report = run_suite(SamplerConfig(n_min=2, n_max=3, count=40, seed=7))
    assert isinstance(report, SuiteReport)
    assert report.ok
    assert report.game_count == 40
    by_id = {c.check_id: c for c in report.checks}
    fixture = by_id["bound_pair:IndividualWorths,EtaTrivial"]
    assert fixture.expected_negative and fixture.failed >= 1
    fixture = by_id["regular_lower:ConstantOne"]
    assert fixture.expected_negative and fixture.failed >= 1
    assert by_id["semi_balanced_order"].failed == 0
    assert by_id["eansc_dual_identity"].passed == 40
    assert by_id["axiom:Efficiency:km"].passed == 40


def test_suite_report_serialisation_is_stable():
    config = SamplerConfig(n_min=2, n_max=3, count=10, seed=5)
    a = json.dumps(run_suite(config).to_dict(), sort_keys=True)
    b = json.dumps(run_suite(config).to_dict(), sort_keys=True)
    assert a == b


def test_single_game_mode_omits_fixtures(g6):
    report = run_suite_on_games([g6], negative_fixtures=False)
    assert report.ok
    assert report.game_count == 1
    assert not any(c.expected_negative for c in report.checks)
    ids = {c.check_id for c in report.checks}
    assert "bound_pair:IndividualWorths,EtaTrivial" not in ids
    assert "covariance_functional:EtaTrivial" not in ids


def test_convex_batch_coincidence_all_pass():
    report = run_suite(SamplerConfig(class_filter="convex", count=15, seed=3))
    assert report.ok
    by_id = {c.check_id: c for c in report.checks}
    coincidence = by_id["convex_coincidence"]
    assert coincidence.passed == 15
    assert coincidence.failed == 0


def test_eansc_route_agreement_catches_a_wrong_allocation(g2, g6, monkeypatch):
    real = values.eansc

    def off_by_one(v):
        r = real(v)
        alloc = (r.allocation[0] + 1,) + r.allocation[1:]
        return ValueResult("eansc", alloc, None, r.lower_used, r.upper_used, r.route)

    monkeypatch.setattr(values, "eansc", off_by_one)
    report = run_suite_on_games([g2, g6], negative_fixtures=False)
    row = {c.check_id: c for c in report.checks}["eansc_route_agreement"]
    assert row.failed == 2
    assert not row.ok and not report.ok
    assert row.witness.component == 0
    assert row.witness.lhs == off_by_one(g2).allocation
    assert row.witness.rhs == real(g2).allocation


GOLDEN = Path(__file__).parent / "golden"


def _verdict(axiom_id, value_id, v):
    try:
        return check_axiom(axiom_id, value_id, v)
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("source", ["sampled", "fermat3"])
@pytest.mark.parametrize("remake", [
    lambda r: ValueResult(*(getattr(r, f.name) for f in fields(r))),
    lambda r: replace(r, route="x"),
], ids=["constructor", "replace"])
def test_a_result_made_from_its_fields_reads_and_checks_as_computed(
    source, remake, monkeypatch
):
    # A result built by the constructor or by replace() holds its fields'
    # pairs over 1: it prints as the computed result does, and the axiom
    # checks, which read its pairs, give the same verdicts.  fermat3 is past
    # SCALE_CAP, where the computed pairs hold Fractions too.
    if source == "sampled":
        config = SamplerConfig(n_min=4, n_max=4, class_filter="semi-balanced", seed=1)
        v = sample_games(config)[0]
    else:
        v = parse_game_file((GOLDEN / "fermat3_game.json").read_bytes())
    for vid, real in dict(values.VALUES).items():
        r = real(v)  # every value is defined on both games
        made = remake(r)
        # The printed numbers; replace() sets a route of its own.
        [printed], [expected] = _result_docs([made]), _result_docs([r])
        assert {**printed, "route": r.route} == expected, vid
        axioms = ("Efficiency", "MinimalRights", "Covariance")
        computed = [_verdict(a, vid, v) for a in axioms]
        monkeypatch.setitem(values.VALUES, vid, lambda g, real=real: remake(real(g)))
        assert [_verdict(a, vid, v) for a in axioms] == computed, vid


def test_eansc_route_agreement_checks_routes_against_the_closed_form(monkeypatch):
    # A route whose pair gives the KM value instead of EANSC: eansc itself
    # computes through it on M-upper games, so comparing EANSC with the
    # rebuilt route would pass; the closed form does not.
    config = SamplerConfig(n_min=3, n_max=3, class_filter="M-upper", count=12, seed=2)

    def row():
        games = sample_games(config)
        report = run_suite_on_games(games, negative_fixtures=False)
        return games, {c.check_id: c for c in report.checks}["eansc_route_agreement"]

    games, honest = row()
    assert honest.passed == len(games) and honest.failed == 0
    covers = values.EANSC_ROUTES["(mu~, M)"][1]
    monkeypatch.setitem(
        values.EANSC_ROUTES, "(mu~, M)", (("KikutaLower", "MilnorUpper"), covers)
    )
    games, wrong = row()
    closed = [
        tuple(c for _, c in sorted(oracles.eansc_vector(oracles.game_from_tugame(v)).items()))
        for v in games
    ]
    differ = [e for v, e in zip(games, closed) if values.km(v).allocation != e]
    assert wrong.failed == len(differ) >= 1 and not wrong.ok
    assert wrong.witness.rhs == differ[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n_max=st.integers(1, 6),
    numerators=st.lists(st.integers(-12, 12), min_size=2, max_size=2).map(sorted),
    denominator_max=st.integers(1, 60),
)
# Seed 1 draws games with n = 2, 4, 5; the common denominator of the last two
# passes SCALE_CAP, so the sampler sums them as Fractions.
@example(seed=1, n_max=5, numerators=[-12, 12], denominator_max=10**6)
def test_convex_sampler_matches_reference(seed, n_max, numerators, denominator_max):
    lo, hi = numerators
    config = SamplerConfig(
        n_min=1, n_max=n_max, numerator_min=lo, numerator_max=hi,
        denominator_max=denominator_max, class_filter="convex", count=3, seed=seed,
    )
    drawn = [oracles.game_from_tugame(v) for v in sample_games(config)]
    assert drawn == oracles.convex_sample(seed, 3, 1, n_max, lo, hi, denominator_max)


# 120 examples over two filters: about the convex test's 60 for each.
@settings(max_examples=120, deadline=None)
@given(
    class_filter=st.sampled_from(["any", "zero-normalised"]),
    seed=st.integers(0, 2**64),
    n_max=st.integers(1, 6),
    numerators=st.lists(st.integers(-12, 12), min_size=2, max_size=2).map(sorted),
    denominator_max=st.integers(1, 60),
)
@example(
    class_filter="any", seed=1, n_max=5, numerators=[-12, 12],
    denominator_max=10**6,
)
def test_unfiltered_samplers_match_reference(
    class_filter, seed, n_max, numerators, denominator_max
):
    """The any and zero-normalised samplers draw the games of the frozenset
    reference, zero-normalised by the reference for the latter."""
    lo, hi = numerators
    config = SamplerConfig(
        n_min=1, n_max=n_max, numerator_min=lo, numerator_max=hi,
        denominator_max=denominator_max, class_filter=class_filter, count=3,
        seed=seed,
    )
    drawn = [oracles.game_from_tugame(v) for v in sample_games(config)]
    expected = oracles.any_sample(seed, 3, 1, n_max, lo, hi, denominator_max)
    if class_filter == "zero-normalised":
        expected = [oracles.zero_normalised_table(table) for table in expected]
    assert drawn == expected


# Widths 1, 2^k (no draw is rejected), 2^k + 1 (almost half are) and
# 2^k - 1, and widths past 2^32, where one getrandbits call takes more than
# one 32-bit word of the generator.
_WIDTHS = st.one_of(
    st.just(1),
    st.builds(
        lambda k, d: max(1, (1 << k) + d),
        st.integers(0, 70), st.sampled_from([-1, 0, 1]),
    ),
    st.integers(2**32, 2**80),
    st.integers(1, 100),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    low=st.integers(-(2**70), 2**70),
    width=_WIDTHS,
    q_max=_WIDTHS,
    count=st.integers(0, 40),
)
@example(seed=0, low=0, width=1, q_max=1, count=5)
@example(seed=0, low=-5, width=13, q_max=4, count=0)
@example(seed=3, low=-(2**40), width=2**33 + 1, q_max=2**32 + 1, count=20)
def test_draw_pairs_draws_as_randint_does(seed, low, width, q_max, count):
    """_draw_pairs gives the pairs of two randint calls a pair, in order, and
    leaves the generator where randint leaves it."""
    mine, theirs = random.Random(seed), random.Random(seed)
    high = low + width - 1
    pairs = _draw_pairs(mine, low, high, q_max, count)
    expected = [
        (theirs.randint(low, high), theirs.randint(1, q_max)) for _ in range(count)
    ]
    assert pairs == expected
    assert mine.getstate() == theirs.getstate()
