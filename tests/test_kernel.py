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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopvals import (
    CoopvalsError,
    NotBalanced,
    NotInClass,
    SamplerConfig,
    TUGame,
    chi,
    classify,
    dual,
    eansc,
    is_strongly_upper_bounded,
    kikuta_lower,
    km,
    membership,
    milnor_upper,
    sample_games,
    subtract_allocation,
    transform,
    ubc_value,
    zero_normalise,
)
from coopvals.bounds import (
    BoundFunctional,
    eansc_tilde_lower,
    eta_from_lower,
    mu_from_upper_vector,
)
from coopvals.game import (
    CLASSES,
    SCALE_CAP,
    _affine,
    _at_most,
    _common,
    _first_failure,
    _fractions,
    _scaled_vector,
    _share,
    _total,
    additive_table,
    build_game,
    coalition_total,
    excess_table,
    halves,
    in_class,
    marginal_contributions,
    zeta,
)
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
    with_1, without_1 = halves(list(range(8)), 1)
    assert list(with_1) == [2, 3, 6, 7]
    assert list(without_1) == [0, 1, 4, 5]


@pytest.mark.parametrize("k", range(1, 13))
def test_halves_lists_each_players_pairs_in_order(k):
    # Sizes 2 to 2^12 with every player: both slice forms, each with several
    # slices once 2^k >= 16.
    table = [(5 * S * S + S) % 97 for S in range(1 << k)]
    for i in range(k):
        avoiding = [S for S in range(1 << k) if not S >> i & 1]
        assert halves(table, i) == (
            [table[S | 1 << i] for S in avoiding], [table[S] for S in avoiding]
        )


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
    # is kept.
    fresh = TUGame(v.n, v.worths)
    asked = set()
    for name in order:
        asked |= {name, *DECIDED_WITH.get(name, ())}
        assert in_class(fresh, name) == expected[name]
        assert set(fresh.memo) <= {("class", c) for c in asked}


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
            with pytest.raises(NotInClass):
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
        with pytest.raises(NotInClass):
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


@pytest.mark.parametrize(
    "v",
    [
        build_game(3, {1: 1, 2: 1, 4: 1, 7: 3}),
        # Held as Fractions: the common denominator passes SCALE_CAP.
        build_game(3, {3: Fraction(1, FERMAT[9]), 5: Fraction(1, FERMAT[8]), 7: 1}),
    ],
    ids=["ints", "fractions"],
)
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
    ],
    ids=[
        "excess_table", "strong_upper", "mu_from_upper", "subtract", "transform",
        "eta_from_lower",
    ],
)
def test_a_vector_of_the_wrong_length_is_refused(v, length, use):
    with pytest.raises(CoopvalsError, match=f"must have 3 components, got {length}"):
        use(v, (1,) * length)


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
