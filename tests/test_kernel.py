"""The subset kernel in coopvals.game, checked against the frozenset oracles.

Every game here is swept twice: by the package, on its integer-scaled table
or, when the common denominator passes SCALE_CAP, on its Fractions; and by
the oracles, coalition by coalition.  The games mix small denominators with
pairwise coprime Fermat numbers 2^(2^k) + 1, so both sides of the cap occur.
"""

import pickle
from contextlib import contextmanager
from dataclasses import astuple
from fractions import Fraction
from math import lcm
from operator import eq, ge, le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopvals import (
    VALUES,
    BoundOrderViolated,
    CoopvalsError,
    DomainError,
    NotBalanced,
    PreconditionNotMet,
    SamplerConfig,
    TUGame,
    ValueResult,
    additive_game,
    check_axiom,
    check_bound_pair,
    check_translation_covariance,
    chi,
    classify,
    compromise,
    dual,
    eansc,
    gately,
    is_strongly_upper_bounded,
    is_regular_lower,
    kikuta_lower,
    km,
    lbc_value,
    membership,
    milnor_upper,
    pansc,
    run_suite,
    sample_games,
    subtract_allocation,
    transform,
    ubc_value,
    zero_normalise,
)
from coopvals.bounds import (
    BoundFunctional,
    _witness,
    eansc_tilde_lower,
    eta_from_lower,
    first_difference,
    mu_from_upper_vector,
)
from coopvals.game import (
    CLASSES,
    SCALE_CAP,
    _above,
    _affine,
    _at_most,
    _common,
    _first_failure,
    _fractions,
    _marginal_list,
    _reduced,
    _slices,
    _scaled_vector,
    _share,
    _spelled,
    _total,
    additive_table,
    build_game,
    coalition_total,
    excess_table,
    in_class,
    marginal_contributions,
    zeta,
)
from coopvals import game as game_module
from coopvals.values import _mix

FERMAT = [2 ** (2**k) + 1 for k in range(10)]

rationals = st.builds(
    Fraction,
    st.integers(-40, 40),
    st.integers(1, 4) | st.sampled_from(FERMAT),
)


def _players(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _random_games(n):
    return st.lists(rationals, min_size=(1 << n) - 1, max_size=(1 << n) - 1).map(
        lambda worths: TUGame(n, (Fraction(0), *worths))
    )


def _convex_games(n):
    # Nonnegative unanimity combinations plus a small additive part: convex,
    # so the class predicates also come out true, sometimes with negative
    # singleton worths.
    def build(coeffs, x):
        table = [
            sum((c for T, c in enumerate(coeffs, 1) if T & S == T), Fraction(0))
            + sum((x[i] for i in _players(S)), Fraction(0))
            for S in range(1 << n)
        ]
        return TUGame(n, tuple(table))

    denominators = st.integers(1, 4) | st.sampled_from(FERMAT)
    return st.builds(
        build,
        st.lists(
            st.builds(Fraction, st.integers(0, 9), denominators),
            min_size=(1 << n) - 1,
            max_size=(1 << n) - 1,
        ),
        st.lists(
            st.builds(Fraction, st.integers(-9, 9), denominators),
            min_size=n,
            max_size=n,
        ),
    )


def _nudged(games, n):
    # One coalition moved off a convex game: the predicates fail at a
    # single place, which a sweep that skips some pairs would miss.
    def nudge(v, S, delta):
        worths = list(v.worths)
        worths[S] += delta
        return TUGame(n, tuple(worths))

    return st.builds(nudge, games, st.integers(1, (1 << n) - 1), rationals)


wide_games = st.integers(1, 6).flatmap(
    lambda n: st.one_of(
        _random_games(n), _convex_games(n), _nudged(_convex_games(n), n)
    )
)


def _vec(d):
    return tuple(d[i] for i in sorted(d))


def _keyed(x):
    return {i + 1: c for i, c in enumerate(x)}


def test_fermat_denominators_pass_the_cap():
    worths = [Fraction(0)] + [Fraction(1, FERMAT[k % 10]) for k in range(15)]
    v = TUGame(4, tuple(worths))
    assert v.scaled == (1, v.worths)
    small = TUGame(2, (0, Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)))
    assert small.scaled == (12, (0, 6, 4, 15))
    assert SCALE_CAP < FERMAT[9]


def test_additive_table_zeta_and_halves():
    x = (Fraction(1, 2), Fraction(-3), Fraction(7, 5))
    assert additive_table(x) == [coalition_total(x, S) for S in range(8)]
    table = list(range(8))
    zeta(table)
    assert table == [sum(T for T in range(8) if T & S == T) for S in range(8)]
    # The two halves of the table for player 1, as the pairs (S + 1, S).
    table = range(8)
    pairs = [p for up, down in _slices(8, 1) for p in zip(table[up], table[down])]
    assert sorted(pairs) == [(2, 0), (3, 1), (6, 4), (7, 5)]


@pytest.mark.parametrize("k", range(1, 13))
def test_marginal_list_places_each_player_at_its_bit(k):
    # With W[S] = S^2 the entry for S is 2^(i+1) * S + 4^i, so each
    # position gives back its S.  Sizes 2 to 2^12 meet both slice forms.
    size = 1 << k
    W = [S * S for S in range(size)]
    for i in range(k):
        marginal = _marginal_list(W, i)
        S = [(m - 4**i) >> (i + 1) for m in marginal]
        assert sorted(S) == [T for T in range(size) if not T >> i & 1]
        above = list(_above(size, i))
        below = [b for b in range(k - 1) if b not in above]
        assert len(above) == k - 1 - i
        # The bits of a position hold the players j > i in order, and the
        # others hold the players j < i in order.
        for b, player in [*zip(above, range(i + 1, k)), *zip(below, range(i))]:
            for p in range(len(marginal)):
                if not p >> b & 1:
                    assert S[p | 1 << b] == S[p] | 1 << player


def _submask_sums(table):
    """sum of table[T] over the T within S, for each S, by walking S's submasks."""
    sums = []
    for S in range(len(table)):
        total, T = table[0], S
        while T:
            total += table[T]
            T = (T - 1) & S
        sums.append(total)
    return sums


# Int tables of every size to 2^10: size 2 runs the strided branch only,
# and from size 8 on the last passes run one slice per block.  The Fraction
# table, with FERMAT[9] among its denominators, is the sampler's path past
# SCALE_CAP.
@pytest.mark.parametrize(
    "table",
    [[(7 * S * S + 3 * S + 1) % 23 - 11 for S in range(1 << k)] for k in range(11)]
    + [[Fraction(S % 5 - 2, FERMAT[S % 10]) for S in range(64)]],
)
def test_zeta_matches_submask_sums(table):
    expected, table = _submask_sums(table), list(table)
    zeta(table)
    assert table == expected


# The classes each class is decided from, besides itself.
DECIDED_WITH = {
    "monotonic": {"convex"},
    "convex": {"monotonic"},
    "superadditive": {"monotonic", "convex"},
    "essential": {"weakly-essential", "M-upper"},
}


@settings(max_examples=80, deadline=None)
@given(wide_games, st.permutations(CLASSES))
# |S|^2 with v({2, 3}) raised: the only violated split is {1} + {2, 3}.
@example(TUGame(3, (0, 1, 1, 4, 1, 4, Fraction(17, 2), 9)), CLASSES)
# Convex and not monotonic: player 1 adds -1 to every coalition.
@example(additive_game((-1, 2, 3)), CLASSES)
# Not convex, and the only negative contribution is player 3's to {1, 2},
# which no singleton entry of a marginal list shows.
@example(TUGame(3, (0, 1, 1, 2, 1, 2, 2, 1)), CLASSES)
def test_classify_matches_oracles(v, order):
    table = oracles.game_from_tugame(v)
    report = classify(v)
    assert report.monotonic == oracles.is_monotonic(table)
    assert report.superadditive == oracles.is_superadditive(table)
    assert report.convex == oracles.is_convex(table)
    assert report.semi_balanced == oracles.is_semi_balanced(table)

    # The other four from the sums of singleton worths and marginal vector.
    single = sum(table[frozenset({i})] for i in oracles.players_of(table))
    marginal = sum(oracles.marginal_vector(table).values())
    total = v.total
    expected = dict(zip(CLASSES, (
        report.monotonic, report.superadditive, report.convex,
        single <= total <= marginal, single <= total, report.semi_balanced,
        total >= marginal, total <= marginal,
    )))
    assert astuple(report) == tuple(expected.values())

    # Asked one at a time in any order, on a game with an empty memo, each
    # class comes out the same, and nothing beyond what it is decided with
    # is kept, besides the Kikuta and Milnor pairs of the marginal pass once
    # monotonic or convex has been asked for.
    fresh = TUGame(v.n, v.worths)
    asked = set()
    for name in order:
        asked |= {name, *DECIDED_WITH.get(name, ())}
        assert in_class(fresh, name) == expected[name]
        kept = {("class", c) for c in asked}
        if asked & {"monotonic", "convex"}:
            kept.add("extreme marginals")
        if "semi-balanced" in asked:  # decided as m <= M, on the kept m
            kept.add(("mu_from_upper", fresh._marginals))
        assert set(fresh.memo) <= kept
    kikuta, milnor = fresh.memo["extreme marginals"]
    assert (_fractions(kikuta), _fractions(milnor)) == tuple(
        map(_vec, oracles.extreme_marginal_vectors(table))
    )


@settings(max_examples=80, deadline=None)
@given(wide_games, st.data())
def test_bound_kernels_match_oracles(v, data):
    table = oracles.game_from_tugame(v)
    kikuta, milnor = oracles.extreme_marginal_vectors(table)
    assert kikuta_lower(v) == _vec(kikuta)
    assert milnor_upper(v) == _vec(milnor)

    arbitrary = tuple(data.draw(st.lists(rationals, min_size=v.n, max_size=v.n)))
    for eta in (arbitrary, milnor_upper(v)):
        keyed = _keyed(eta)
        derived = oracles.mu_from_upper(table, keyed)
        assert mu_from_upper_vector(v, eta) == _vec(derived)
        assert is_strongly_upper_bounded(v, eta) == oracles.is_strongly_upper_bounded(
            table, keyed
        )
        # The UBC guards.  Every game is strongly bounded by the Milnor
        # vector, so that one reaches the NotBalanced branch often.
        upper = BoundFunctional("Drawn", lambda game, eta=eta: eta, True)
        if not oracles.is_strongly_upper_bounded(table, keyed):
            with pytest.raises(BoundOrderViolated):
                ubc_value(v, upper)
        elif sum(derived.values()) > v.total:
            with pytest.raises(NotBalanced):
                ubc_value(v, upper)
        else:
            assert ubc_value(v, upper).lower_used == _vec(derived)

    eta_fn = BoundFunctional("Drawn", lambda game: arbitrary, True)
    report = membership(v, "KikutaLower", eta_fn)
    assert report.in_b_hat == oracles.in_b_hat(table)
    assert report.in_strong_upper == oracles.is_strongly_upper_bounded(
        table, _keyed(arbitrary)
    )
    derived = oracles.mu_from_upper(table, _keyed(arbitrary))
    assert report.in_proper_upper == (
        report.in_strong_upper and sum(derived.values()) <= v.total
    )


def _fermat_convex(n):
    """|S|^2 plus an additive part over Fermat denominators: convex, and
    held as Fractions, since FERMAT[8] alone passes SCALE_CAP."""
    x = [Fraction(i + 1, FERMAT[9 - i]) for i in range(n)]
    return TUGame(n, [
        S.bit_count() ** 2 + sum((x[i] for i in _players(S)), Fraction(0))
        for S in range(1 << n)
    ])


@pytest.mark.parametrize("v, eta, game_as_ints", [
    # Each under SCALE_CAP, their common denominator past it: a game held as
    # ints over 3^60 and an eta over F5 * F6 * F7.
    (
        TUGame(3, [Fraction(S * S - 5, 3**60) if S else 0 for S in range(8)]),
        (Fraction(1, FERMAT[5]), Fraction(-2, FERMAT[6]), Fraction(3, FERMAT[7])),
        True,
    ),
    # A game held as Fractions past SCALE_CAP, and an int eta.
    (_fermat_convex(3), (1, -2, 3), False),
])
def test_mu_from_upper_where_the_cap_is_passed_partway(v, eta, game_as_ints):
    assert all(type(c) is int for c in _scaled_vector(eta)[1])
    assert all(type(c) is int for c in v.scaled[1]) == game_as_ints
    # The excess table is held as Fractions, and mu^x adds its maxima to eta.
    assert excess_table(v, eta)[0] == 1
    expected = oracles.mu_from_upper(oracles.game_from_tugame(v), _keyed(eta))
    assert mu_from_upper_vector(v, eta) == _vec(expected)


@settings(max_examples=80, deadline=None)
@given(wide_games)
# Past SCALE_CAP: a convex table, and the same with v({1, 2}) lowered, so
# that the pass keeps the first and last entries of some lists and takes
# the min and max of the others.
@example(_fermat_convex(3))
@example(TUGame(3, [w - 3 * (S == 3) for S, w in enumerate(_fermat_convex(3).worths)]))
def test_marginal_pass_and_sweep_keep_one_pair(v):
    # Kikuta and Milnor come out the same, down to their scaled pairs,
    # whether the marginal pass of classify or the sweep of the bounds
    # fills the memo, and both equal the oracles.
    table = oracles.game_from_tugame(v)
    expected = tuple(map(_vec, oracles.extreme_marginal_vectors(table)))
    classified_first, swept_first = TUGame(v.n, v.worths), TUGame(v.n, v.worths)
    classify(classified_first)
    bounds_first = kikuta_lower(swept_first), milnor_upper(swept_first)
    classify(swept_first)
    assert (kikuta_lower(classified_first), milnor_upper(classified_first)) == expected
    assert bounds_first == expected
    pairs = [u.memo["extreme marginals"] for u in (classified_first, swept_first)]
    assert pairs[0] == pairs[1]


@pytest.mark.parametrize("n", range(7, 11))
def test_marginal_sweeps_match_oracles_past_hypothesis_sizes(n):
    # The Hypothesis games stop at n = 6, where a marginal list has 32
    # entries.  Here a convex sampled game, and the same game with the worth
    # of the last two players lowered to the sum of their singleton worths
    # less 1/2, so that the one pair failing convexity is the last one the
    # convexity sweep compares.
    config = SamplerConfig(n_min=n, n_max=n, class_filter="convex",
                           numerator_min=0, count=1, seed=1)
    v = sample_games(config)[0]
    a, b = 1 << (n - 2), 1 << (n - 1)
    worths = list(v.worths)
    worths[a | b] = worths[a] + worths[b] - Fraction(1, 2)
    nudged = TUGame(n, worths)
    arbitrary = tuple(Fraction(3 * i % 7 - 3, i % 3 + 1) for i in range(n))
    for u, broken in ((v, set()), (nudged, {frozenset({n - 1, n})})):
        table = oracles.game_from_tugame(u)
        assert oracles.convexity_violations(table) == broken
        report = classify(u)
        assert report.convex == (not broken)
        assert report.monotonic == oracles.is_monotonic(table)
        kikuta, milnor = oracles.extreme_marginal_vectors(table)
        assert (kikuta_lower(u), milnor_upper(u)) == (_vec(kikuta), _vec(milnor))
        for eta in (milnor_upper(u), arbitrary):
            expected = oracles.mu_from_upper(table, _keyed(eta))
            assert mu_from_upper_vector(u, eta) == _vec(expected)


@settings(max_examples=60, deadline=None)
@given(wide_games, st.data())
def test_transform_matches_coalition_sums(v, data):
    scale = data.draw(rationals.filter(lambda c: c > 0))
    shift = tuple(data.draw(st.lists(rationals, min_size=v.n, max_size=v.n)))
    moved = transform(v, scale, shift)
    assert moved.worths == tuple(
        scale * v.worths[S] + sum((shift[i] for i in _players(S)), Fraction(0))
        for S in range(1 << v.n)
    )


@settings(max_examples=80, deadline=None)
@given(wide_games)
# Singleton worths exceed v(N) by 1/2: not weakly essential, so no chi.
@example(TUGame(2, (0, 1, 1, Fraction(3, 2))))
def test_chi_km_eansc_match_oracles(v):
    table = oracles.game_from_tugame(v)
    assert km(v).allocation == _vec(oracles.km_vector(table))
    assert eansc(v).allocation == _vec(oracles.eansc_vector(table))
    expected = oracles.chi_vector(table)
    if expected is None:
        with pytest.raises(NotBalanced):
            chi(v)
    else:
        assert chi(v).allocation == _vec(expected)


def _from_table(table, n):
    """The package game of an oracle table."""
    return TUGame(n, [
        table[frozenset(p for p in range(1, n + 1) if mask >> (p - 1) & 1)]
        for mask in range(1 << n)
    ])


@settings(max_examples=80, deadline=None)
@given(
    wide_games,
    rationals.filter(lambda c: c > 0),
    st.lists(rationals, min_size=6, max_size=6),
)
# Fermat denominators: the common denominator passes SCALE_CAP.
@example(
    TUGame(3, [0] + [Fraction(1, FERMAT[k + 3]) for k in range(7)]),
    Fraction(2, 3),
    [Fraction(1, 2)] * 6,
)
def test_scaled_state_round_trips_and_derived_games_match_oracles(v, scale, draws):
    L, W = v.scaled
    within_cap = lcm(*(w.denominator for w in v.worths)) <= SCALE_CAP
    assert (type(W[0]) is int) == within_cap
    again = TUGame.from_scaled(v.n, L, W)
    restored = pickle.loads(pickle.dumps(v))
    for twin in (again, restored):
        assert twin == v and hash(twin) == hash(v)
        assert twin.worths == v.worths
    if within_cap:
        # A common denominator that is not the least is reduced away.
        assert TUGame.from_scaled(v.n, 6 * L, [6 * w for w in W]).scaled == v.scaled

    table = oracles.game_from_tugame(v)
    shift = tuple(draws[:v.n])
    negated = {i: -c for i, c in _keyed(shift).items()}
    nu = {i: -table[frozenset({i})] for i in range(1, v.n + 1)}
    for derived, expected in (
        (transform(v, scale, shift), oracles.affine_table(table, scale, _keyed(shift))),
        (subtract_allocation(v, shift), oracles.affine_table(table, 1, negated)),
        (zero_normalise(v), oracles.affine_table(table, 1, nu)),
        (dual(v), oracles.dual_table(table)),
    ):
        built = _from_table(expected, v.n)
        assert derived == built and hash(derived) == hash(built)
        assert derived.scaled == built.scaled
        assert derived.worths == built.worths


@contextmanager
def counted_fractions():
    """A list that grows by one for each Fraction constructed."""
    built = []
    slot = Fraction.__dict__["__new__"]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield built
    finally:
        Fraction.__new__ = slot


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40) | st.sampled_from(FERMAT),
    st.lists(st.integers(-(10**6), 10**6) | st.sampled_from(FERMAT), max_size=5),
)
# A pair past SCALE_CAP: the Fractions over L != 1 that _share and _affine
# give there, which gcd does not take.
@example(3, [Fraction(1, FERMAT[9]), Fraction(-2, FERMAT[8])])
def test_spelled_pairs_are_str_of_their_fractions(L, X):
    x = (L, tuple(X))
    assert _spelled(x) == [[str(c) for c in _fractions(x)]]


# A scaled pair: ints over L, L past SCALE_CAP, or Fractions past it, over
# 1 as _scale gives them or over L != 1 as _share and _affine do.
_SPELLED_PAIRS = st.tuples(
    st.integers(1, 40) | st.just(1) | st.sampled_from(FERMAT),
    st.lists(
        st.integers(-(10**6), 10**6) | st.sampled_from(FERMAT), max_size=5
    ).map(tuple),
) | st.tuples(
    st.integers(1, 3),
    st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(FERMAT[8:])),
        max_size=3,
    ).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPELLED_PAIRS, max_size=6))
@example([])
@example([(1, ()), (5, ()), (1, (0, -3, 7))])  # empty vectors and L = 1 only
@example([(6, (3, 4, 0)), (4, (2, -6)), (6, (5,)), (1, (9,))])  # several L
@example([(FERMAT[9], (FERMAT[9], -2 * FERMAT[9], 3)), (2, (1,))])  # L past the cap
@example([(3, (1,)), (1, (Fraction(1, FERMAT[9]), 2))])  # one pair of Fractions
def test_spelled_is_str_of_every_fraction_of_every_pair(pairs):
    # One call for any number of pairs gives each pair's texts, in order.
    assert _spelled(*pairs) == [[str(Fraction(c, L)) for c in X] for L, X in pairs]


def test_derived_games_build_no_fraction_per_coalition():
    n = 8
    v = TUGame(n, [Fraction(S % 7 - 3, 1 + S % 4) if S else 0 for S in range(1 << n)])
    shift = [Fraction(i - 3, 1 + i % 3) for i in range(n)]
    assert v.scaled[0] == 12
    for derive in (
        lambda: transform(v, 3, shift),
        lambda: transform(v, Fraction(2, 5), [1] * n),
        lambda: dual(v),
        lambda: subtract_allocation(v, shift),
        lambda: zero_normalise(v),
    ):
        with counted_fractions() as built:
            derive()
        assert len(built) <= 2 * n
    # The counter sees one construction per coalition where there is one: in
    # the Fraction view of a derived game, built on first use.
    derived = dual(v)
    with counted_fractions() as built:
        derived.worths
    assert len(built) == 1 << n


_THREE_PLAYERS = pytest.mark.parametrize(
    "v",
    [
        build_game(3, {1: 1, 2: 1, 4: 1, 7: 3}),
        # Held as Fractions: the common denominator passes SCALE_CAP.
        build_game(3, {3: Fraction(1, FERMAT[9]), 5: Fraction(1, FERMAT[8]), 7: 1}),
    ],
    ids=["ints", "fractions"],
)


def _returning(x):
    """A bound functional F, flagged covariant and regular, that gives x."""
    return BoundFunctional("F", lambda v: x, True, True)


# The checks and values that read a functional F, as a lower or an upper
# bound, called with F first.
_FUNCTIONAL_USES = {
    "bound_pair": lambda v, F: check_bound_pair(v, F, "MilnorUpper"),
    "membership": lambda v, F: membership(v, F, "MilnorUpper"),
    "regular_lower": is_regular_lower,
    "lbc_value": lbc_value,
    "ubc_value": ubc_value,
}


@_THREE_PLAYERS
@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize(
    "use",
    [
        excess_table,
        is_strongly_upper_bounded,
        mu_from_upper_vector,
        subtract_allocation,
        lambda v, x: transform(v, 2, x),
        eta_from_lower,
        lambda v, x: compromise(v, x, (9, 9, 9)),
        lambda v, x: compromise(v, (0, 0, 0), x),
        lambda v, x: check_translation_covariance("KikutaLower", v, x),
        lambda v, x: check_axiom("Covariance", "tau", v, probe=(1, x)),
        *(
            lambda v, x, use=use: use(v, _returning(x))
            for use in _FUNCTIONAL_USES.values()
        ),
    ],
    ids=[
        "excess_table", "strong_upper", "mu_from_upper", "subtract", "transform",
        "eta_from_lower", "compromise_lower", "compromise_upper",
        "translation_covariance", "axiom_probe", *_FUNCTIONAL_USES,
    ],
)
def test_a_vector_of_the_wrong_length_is_refused(v, length, use):
    with pytest.raises(CoopvalsError, match=f"must have 3 components, got {length}"):
        use(v, (1,) * length)


@_THREE_PLAYERS
@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("use", _FUNCTIONAL_USES.values(), ids=list(_FUNCTIONAL_USES))
def test_a_zero_functional_of_the_wrong_length_is_refused(v, length, use):
    # A short zero vector meets every inequality on the components it has,
    # so only its length can refuse it.
    with pytest.raises(CoopvalsError) as caught:
        use(v, _returning((0,) * length))
    assert str(caught.value) == f"F must have 3 components, got {length}"


def _game_and_two_vectors(n):
    vector = st.lists(rationals, min_size=n, max_size=n).map(tuple)
    games = st.one_of(_random_games(n), _convex_games(n), _nudged(_convex_games(n), n))
    return st.tuples(games, vector, vector)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(_game_and_two_vectors))
# Fermat denominators: every common denominator passes SCALE_CAP, so the
# vector step runs on the Fractions.
@example((
    TUGame(2, (0, *(Fraction(k, FERMAT[9 - k]) for k in (1, 2, 3)))),
    (Fraction(1, FERMAT[9]), Fraction(-3, FERMAT[5])),
    (Fraction(7, FERMAT[9]), Fraction(1, FERMAT[4])),
))
# An int pair against a pair held as Fractions past SCALE_CAP, compared by
# cross-multiplying: <= first fails at index 1, and >= at index 0.
@example((
    TUGame(2, (0, 1, Fraction(1, 2), 3)),
    (Fraction(-1, 2), Fraction(5, 3)),
    (Fraction(1, FERMAT[9]), Fraction(1, FERMAT[8])),
))
def test_vector_step_matches_fraction_arithmetic(drawn):
    v, x, y = drawn
    xs, ys = _scaled_vector(x), _scaled_vector(y)
    assert _scaled_vector(xs) is xs and _fractions(xs) == x
    L, (X, Y) = _common(xs, ys)
    over_cap = lcm(*(c.denominator for c in x + y)) > SCALE_CAP
    if not over_cap:
        assert all(type(c) is int for c in X + Y)
    elif all(type(c) is int for c in xs[1] + ys[1]):
        # Two int pairs whose common denominator passes SCALE_CAP.
        assert L == 1 and all(type(c) is Fraction for c in X + Y)
    assert tuple(Fraction(c, L) for c in X + Y) == x + y
    assert _at_most(xs, ys) == all(a <= b for a, b in zip(x, y))
    assert _first_failure(xs, ys) == next(
        (i for i, (a, b) in enumerate(zip(x, y)) if a != b), None
    )
    for holds in (le, ge):
        assert _first_failure(xs, ys, holds) == next(
            (i for i, (a, b) in enumerate(zip(x, y)) if not holds(a, b)), None
        )

    vN, total = v.total, sum(x, Fraction(0))
    assert _fractions(_total(xs)) == (total,)
    assert _fractions(_affine(1, xs, ys)) == tuple(a + b for a, b in zip(x, y))
    assert _fractions(_affine(-1, ys, xs)) == tuple(a - b for a, b in zip(x, y))
    scale = Fraction(-7, 3)
    assert _fractions(_affine(scale, xs, ys)) == tuple(
        scale * a + b for a, b in zip(x, y)
    )
    for k in (1, 2, v.n + 1):
        assert _fractions(_share(xs, v._scaled_total, k)) == tuple(
            c + (vN - total) / k for c in x
        )
    assert eta_from_lower(v, x) == tuple(vN - (total - c) for c in x)
    M = marginal_contributions(v)
    if v.n >= 2:
        residual = (vN - sum(M)) / (v.n - 1)
        assert eansc_tilde_lower(v) == tuple(c + residual for c in M)

    # _mix against mu + lam * (eta - mu), lam from efficiency; it needs
    # sum(eta) != sum(mu) whenever mu != eta.
    if x == y:
        mixed = _mix(v, x, y, "mixed")
        assert mixed.lam is None and mixed.allocation == x
    elif sum(y) != total:
        mixed = _mix(v, x, y, "mixed")
        lam = (vN - total) / (sum(y) - total)
        assert mixed.lam == lam
        assert mixed.allocation == tuple(m + lam * (e - m) for m, e in zip(x, y))
    else:
        return
    # From the pairs: the same result, with the allocation's pair kept.
    assert _mix(v, xs, ys, "mixed") == mixed
    assert _fractions(mixed._scaled) == mixed.allocation


def test_mix_builds_one_fraction_per_component_and_the_weight():
    n = 8
    v = TUGame(n, [Fraction(S % 7 - 3, 1 + S % 4) if S else 0 for S in range(1 << n)])
    mu = tuple(Fraction(i - 5, 1 + i % 3) for i in range(n))
    eta = tuple(m + Fraction(i + 1, 2 + i % 2) for i, m in enumerate(mu))
    v.total  # cached before counting
    with counted_fractions() as built:
        result = _mix(v, mu, eta, "probe")
    assert result.lam is not None
    assert len(built) <= n + 1


@pytest.mark.parametrize("v, refuse, kind, text", [
    (build_game(2, {0b11: Fraction(-2, 3)}),
     lambda v: compromise(v, (0, 0), (-1, 1)),
     BoundOrderViolated, "lower bound exceeds upper bound at player 1: 0 > -1"),
    (build_game(3, {7: Fraction(7, 2)}),
     lambda v: compromise(v, (0, 0, 0), (1, 1, 1)),
     NotBalanced, "v(N) = 7/2 is outside the bound bracket [0, 3]"),
    (build_game(2, {0b01: 3, 0b10: 3, 0b11: Fraction(9, 2)}), chi,
     NotBalanced, "v(N) = 9/2 is outside the bound bracket [6, 6]"),
    # u_N with two players is weakly essential; its dual, with v*(i) = 1, is not.
    (build_game(2, {0b11: 1}), lambda v: check_axiom("SelfDuality", "chi", v),
     PreconditionNotMet,
     "dual game leaves the class of chi: v(N) = 1 is outside the bound bracket [2, 2]"),
    # sum(nu) = 5/2 > v(N) = 2, so nu_1 = 3/2 > eta^nu_1 = 3/2 + (2 - 5/2).
    (build_game(2, {0b01: Fraction(3, 2), 0b10: 1, 0b11: 2}),
     lambda v: lbc_value(v, "IndividualWorths"),
     BoundOrderViolated, "lower bound exceeds upper bound at player 1: 3/2 > 1"),
    # v(12) = 11 exceeds eta'(12) = 10.
    (build_game(3, {1: 1, 2: 1, 4: 2, 3: 11, 5: 6, 6: 6, 7: 8}),
     lambda v: ubc_value(v, "EtaPrime"),
     BoundOrderViolated, "lower bound exceeds upper bound at player 1: 6 > 5"),
    (build_game(2, {0b01: Fraction(5, 2), 0b10: 2, 0b11: 3}), gately,
     NotBalanced,
     "v(N) = 3 is below the lower bound sum 9/2 and above the upper bound sum 3/2"),
    (build_game(1, {0b1: Fraction(-3, 2)}), pansc,
     BoundOrderViolated, "lower bound exceeds upper bound at player 1: 0 > -3/2"),
    # M = (1/2, 1) >= 0 and v(N) < 0.
    (build_game(2, {0b01: -2, 0b10: Fraction(-3, 2), 0b11: -1}), pansc,
     NotBalanced, "v(N) = -1 is outside the bound bracket [0, 3/2]"),
])
def test_a_refusal_is_spelled_only_when_its_text_is_read(
    v, refuse, kind, text, monkeypatch
):
    # Every value's refusals carry their ints, and a refusal on a derived game
    # its cause: a refusal that is caught and dropped formats no number.
    spelled = []
    monkeypatch.setattr(
        game_module, "_spelled", lambda *pairs: spelled.append(pairs) or _spelled(*pairs)
    )
    with counted_fractions() as built:
        with pytest.raises(kind) as caught:
            refuse(v)
    assert built == [] and spelled == []
    assert str(caught.value) == text
    assert str(pickle.loads(pickle.dumps(caught.value))) == text


@pytest.mark.parametrize("kind", [BoundOrderViolated, NotBalanced, PreconditionNotMet])
def test_a_refusal_raised_with_its_text_reads_as_that_text(kind):
    # The public form: one message, as any DomainError takes it.
    assert str(kind("some text")) == "some text"
    assert str(pickle.loads(pickle.dumps(kind("some text")))) == "some text"


def _fresh_result(r):
    """A result of _mix on r's pairs with no field read yet."""
    return ValueResult._from_scaled(
        r.value_id, r._scaled, r._lam, r._lower, r._upper, r.route
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.one_of(_random_games(n), _convex_games(n))))
def test_a_results_fields_are_views_of_its_pairs(v):
    # Each field is built from its pair on first read, and ==, hash, repr
    # and pickling see the result that ValueResult(...) makes of the fields.
    for vid, f in VALUES.items():
        try:
            r = f(v)
        except DomainError:
            continue
        fields = (r.allocation, r.lam, r.lower_used, r.upper_used)
        assert r.allocation == _fractions(r._scaled), vid
        assert r.lower_used == _fractions(r._lower), vid
        assert r.upper_used == _fractions(r._upper), vid
        if r._lam is None:
            assert r.lam is None, vid
        else:
            num, den = r._lam
            assert (r.lam,) == _fractions((den, (num,))), vid
        public = ValueResult(r.value_id, *fields, r.route)
        assert _fresh_result(r) == public, vid
        assert hash(_fresh_result(r)) == hash(public), vid
        assert repr(_fresh_result(r)) == repr(public), vid
        assert pickle.loads(pickle.dumps(_fresh_result(r))) == public, vid


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        *(st.lists(rationals, min_size=n, max_size=n).map(tuple) for _ in "xy")
    )),
    st.sampled_from([eq, le, ge]),
    st.integers(1, 6),
)
def test_a_witness_of_scaled_pairs_is_first_difference(drawn, holds, k):
    # Both sides over k times their least denominator: the sides of the
    # witness are views of the pairs, whatever their denominator.
    x, y = drawn
    xs, ys = (
        (k * L, tuple(k * c for c in X)) for L, X in map(_scaled_vector, (x, y))
    )
    assert _reduced(xs) == _scaled_vector(x) and _fractions(xs) == x
    expected = first_difference(x, y, holds)
    if expected is None:
        assert _witness(xs, ys, holds) is None
        return
    # Each comparison meets a witness with no side read yet.
    assert _witness(xs, ys, holds) == expected
    assert hash(_witness(xs, ys, holds)) == hash(expected)
    assert repr(_witness(xs, ys, holds)) == repr(expected)
    assert pickle.loads(pickle.dumps(_witness(xs, ys, holds))) == expected
    w = _witness(xs, ys, holds)
    assert (w.lhs, w.rhs) == (_fractions(xs), _fractions(ys)) == (x, y)


def test_a_suite_run_builds_few_fractions():
    # A result or a witness that is only checked builds no Fraction: run_suite
    # reads pairs throughout (2,017 Fractions a run when results built
    # theirs eagerly).
    counts = []
    for seed in range(1, 7):
        config = SamplerConfig(n_min=5, n_max=5, count=10, seed=seed)
        with counted_fractions() as built:
            run_suite(config)
        counts.append(len(built))
    assert sum(counts) / len(counts) <= 100, counts
