"""Executable property checks, seeded game samplers, and the check suite.

The axiom checks instantiate the characterisation properties as exact
computations on concrete games:

    MinimalRights             f(v) = f(v - mu(v)) + mu(v)
    RestrictedProportionality mu(v) = 0  =>  f(v) = lam * eta(v)
    EgalitarianDivision       mu(v) = 0  =>  all components of f(v) equal
    Covariance                f(scale*v + x) = scale*f(v) + x
    Efficiency                sum f(v) = v(N)
    SelfDuality               f(v*) = f(v)
    IndividualRationality     f(v) >= individual worths

where (mu, eta) is the value's own bound pair.  Proportionality is tested
as cross-multiplied collinearity, f_i * sum(eta) = sum(f) * eta_i, which
needs no division and no sign assumption on the scalar.  Checks whose
precondition fails raise PreconditionNotMet and are reported as skipped,
never as silently passed; so do checks whose shifted, transformed or dual
game leaves the value's class.

Every check compares scaled pairs (L, X) in ints: the bound vectors of the
functionals, the allocations as values._mix formed them, and the shift
probes, drawn as ints over one denominator: one x and one (a, y) per game,
whose games v + x and a * v + y the suite's rows share, held by the suite
(never by v.memo) until those rows are done.  A witness keeps its sides as
pairs too, and builds their Fractions only when they are read;
SuiteReport.to_dict prints the first witness of each row, spelled from its
pairs with no Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import add, ge
from typing import Any, Callable, Iterable, Sequence, Tuple

from . import bounds, values
from .bounds import BoundFunctional, CheckOutcome, Witness, _witness, functional
from .errors import (
    CoopvalsError,
    DomainError,
    NotInClass,
    PreconditionNotMet,
    SamplerExhausted,
    TooFewPlayers,
)
from .game import (
    CLASSES,
    TUGame,
    _affine,
    _at_most,
    _from_pairs,
    _scale,
    _Scaled,
    _share,
    _spelled,
    _total,
    _vector,
    additive_table,
    as_fraction,
    dual,
    in_class,
    player_cap,
    transform,
    zero_normalise,
    zeta,
)

__all__ = [
    "AXIOMS",
    "CheckOutcome",
    "SamplerConfig",
    "CheckStats",
    "SuiteReport",
    "check_axiom",
    "check_convex_coincidence",
    "sample_games",
    "run_suite",
    "run_suite_on_games",
]

AXIOMS = (
    "MinimalRights",
    "RestrictedProportionality",
    "EgalitarianDivision",
    "Covariance",
    "Efficiency",
    "SelfDuality",
    "IndividualRationality",
)

# (scale, shift): the shift as rationals or as a scaled pair.
Probe = Tuple[Fraction, Any]


def _default_probe(n: int) -> Probe:
    shift = tuple((i + 1) if i % 2 == 0 else -(i + 1) for i in range(n))
    return Fraction(3), (1, shift)


def _value(value_id: str) -> Callable[[TUGame], values.ValueResult]:
    try:
        return values.VALUES[value_id]
    except KeyError:
        raise CoopvalsError(f"unknown value id {value_id!r}") from None


def _pair(value_id: str) -> Tuple[BoundFunctional, BoundFunctional]:
    mu_id, eta_id = values.AXIOM_PAIRS[value_id]
    return functional(mu_id), functional(eta_id)


def _derived(
    f: Callable[[TUGame], values.ValueResult], value_id: str, what: str, game: TUGame
) -> _Scaled:
    """f's allocation pair on a game derived from v; a derived game that the
    value refuses fails the axiom's precondition rather than the axiom."""
    try:
        return f(game)._scaled
    except DomainError as exc:
        raise PreconditionNotMet(what, value_id, exc) from None


def _covariance(
    value_id: str, v: TUGame, moved: TUGame, scale: Fraction, shift: _Scaled
) -> Witness | None:
    """The witness of f(moved) != scale * f(v) + shift, moved = scale * v + shift."""
    f = _value(value_id)
    moved_alloc = _derived(f, value_id, "transformed", moved)
    return _witness(moved_alloc, _affine(scale, f(v)._scaled, shift))


def check_axiom(
    axiom_id: str,
    value_id: str,
    v: TUGame,
    *,
    probe: Probe | None = None,
) -> CheckOutcome:
    """Check one axiom for one named value on one game, exactly.

    Raises the value's DomainError when it is undefined on v and
    PreconditionNotMet when the axiom's own hypothesis fails (for example
    mu(v) != 0 for the proportionality axioms); callers treat the latter
    as a skip.  The probe (scale, shift) is used by Covariance only.
    """
    f = _value(value_id)
    if axiom_id not in AXIOMS:
        raise CoopvalsError(f"unknown axiom id {axiom_id!r}")
    mu_fn, eta_fn = _pair(value_id)
    needs_zero_mu = axiom_id in ("RestrictedProportionality", "EgalitarianDivision")
    if needs_zero_mu and any(mu_fn._scaled(v)[1]):
        raise PreconditionNotMet(f"mu(v) != 0 for {value_id}")
    if axiom_id == "Covariance":
        scale, shift = probe if probe is not None else _default_probe(v.n)
        scale, shift = as_fraction(scale), _vector(shift, v.n)
    alloc = f(v)._scaled

    if axiom_id == "Efficiency":
        witness = _witness(_total(alloc), v._scaled_total)
    elif axiom_id == "MinimalRights":
        inner = _derived(f, value_id, "shifted", mu_fn.shifted(v))
        witness = _witness(alloc, _affine(1, inner, mu_fn._scaled(v)))
    elif axiom_id == "RestrictedProportionality":
        # f_i * sum(eta) against sum(f) * eta_i, both over K * J.
        (K, A), (J, E) = alloc, eta_fn._scaled(v)
        s_alloc, s_eta, KJ = sum(A), sum(E), K * J
        witness = _witness(
            (KJ, tuple(a * s_eta for a in A)), (KJ, tuple(s_alloc * e for e in E))
        )
    elif axiom_id == "EgalitarianDivision":
        L, A = alloc
        witness = _witness(alloc, (L, (A[0],) * v.n))
    elif axiom_id == "Covariance":
        witness = _covariance(value_id, v, transform(v, scale, shift), scale, shift)
    elif axiom_id == "SelfDuality":
        witness = _witness(_derived(f, value_id, "dual", dual(v)), alloc)
    else:  # IndividualRationality
        # The value's bound pair, which it was computed from.
        lower, nu = mu_fn._scaled(v), v._singletons
        if not (_at_most(lower, eta_fn._scaled(v)) and _at_most(nu, lower)):
            raise PreconditionNotMet(
                f"the lower bound of {value_id} does not dominate the "
                "individual worths on this game"
            )
        witness = _witness(alloc, nu, ge)
    return CheckOutcome(f"axiom:{axiom_id}:{value_id}", witness)


def check_convex_coincidence(v: TUGame) -> CheckOutcome:
    """On a convex game, tau, chi and the KM value must coincide exactly."""
    if not in_class(v, "convex"):
        raise NotInClass("convex")
    a_tau = values.tau(v)._scaled
    a_chi = values.chi(v)._scaled
    a_km = values.km(v)._scaled
    witness = _witness(a_tau, a_chi) or _witness(a_tau, a_km)
    return CheckOutcome("convex_coincidence", witness)


# Every class but monotonic and superadditive has a sampler filter.
CLASS_FILTERS = ("any", "zero-normalised") + tuple(
    c for c in CLASSES if c not in ("monotonic", "superadditive")
)


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded random-game generation parameters.

    Worths are numerator/denominator pairs drawn uniformly from the given
    integer ranges.  The seed fully determines the emitted sequence.  Class
    filters other than any/zero-normalised/convex use rejection sampling
    with at most retry_cap attempts per requested game.
    """

    n_min: int = 3
    n_max: int = 3
    numerator_min: int = -8
    numerator_max: int = 12
    denominator_max: int = 4
    class_filter: str = "any"
    count: int = 100
    seed: int = 0
    retry_cap: int = 1000

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max <= player_cap():
            raise CoopvalsError(
                f"need 1 <= n_min <= n_max <= {player_cap()}, "
                f"got [{self.n_min}, {self.n_max}]"
            )
        if self.numerator_min > self.numerator_max:
            raise CoopvalsError("empty numerator range")
        if self.denominator_max < 1:
            raise CoopvalsError("denominator_max must be at least 1")
        if self.count < 0:
            raise CoopvalsError("count must be nonnegative")
        if self.retry_cap < 1:
            raise CoopvalsError("retry_cap must be at least 1")
        if self.class_filter not in CLASS_FILTERS:
            raise CoopvalsError(
                f"unknown class filter {self.class_filter!r}; "
                f"expected one of {', '.join(CLASS_FILTERS)}"
            )


def _draw_pairs(
    rng: random.Random, low: int, high: int, q_max: int, count: int
) -> list[Tuple[int, int]]:
    """count pairs (p, q): p drawn from [low, high], then q from [1, q_max].

    The draws are those of rng.randint(low, high) and rng.randint(1, q_max),
    pair after pair, and leave rng in the same state: each int is randint's
    rejection loop, getrandbits of the width's bit length until the result
    is below the width, without randint's per-call argument handling.
    """
    getrandbits = rng.getrandbits
    p_width = high - low + 1
    p_bits, q_bits = p_width.bit_length(), q_max.bit_length()
    pairs = []
    append = pairs.append
    for _ in repeat(None, count):
        p = getrandbits(p_bits)
        while p >= p_width:
            p = getrandbits(p_bits)
        q = getrandbits(q_bits)
        while q >= q_max:
            q = getrandbits(q_bits)
        append((low + p, q + 1))
    return pairs


def _draw_any(rng: random.Random, config: SamplerConfig, n: int) -> TUGame:
    pairs = [(0, 1)] + _draw_pairs(
        rng, config.numerator_min, config.numerator_max, config.denominator_max,
        (1 << n) - 1,
    )
    return _from_pairs(n, pairs)


def _draw_convex(rng: random.Random, config: SamplerConfig, n: int) -> TUGame:
    # Nonnegative unanimity combination plus an additive shift: convex by
    # construction since unanimity games are convex and the cone is closed
    # under nonnegative sums and additive translations.  The combination is
    # the zeta transform of the coefficients; it and the shift's additive
    # table are summed over one common denominator of every draw, by _scale.
    q_max = config.denominator_max
    coeffs = _draw_pairs(rng, 0, max(config.numerator_max, 1), q_max, (1 << n) - 1)
    shift = _draw_pairs(rng, config.numerator_min, config.numerator_max, q_max, n)
    L, scaled = _scale(coeffs + shift)
    table = [0] + scaled[:len(coeffs)]
    zeta(table)
    shifts = additive_table(scaled[len(coeffs):])
    return TUGame.from_scaled(n, L, list(map(add, table, shifts)))


def sample_games(config: SamplerConfig) -> list[TUGame]:
    """Deterministic seeded game sequence honouring the class filter."""
    rng = random.Random(config.seed)
    by_construction = config.class_filter in ("any", "zero-normalised", "convex")
    out: list[TUGame] = []
    for _ in range(config.count):
        for _ in range(config.retry_cap):
            n = rng.randint(config.n_min, config.n_max)
            if config.class_filter == "convex":
                v = _draw_convex(rng, config, n)
            elif config.class_filter == "zero-normalised":
                v = zero_normalise(_draw_any(rng, config, n))
            else:
                v = _draw_any(rng, config, n)
            if by_construction or in_class(v, config.class_filter):
                out.append(v)
                break
        else:
            raise SamplerExhausted(
                f"no {config.class_filter} game found within "
                f"{config.retry_cap} attempts"
            )
    return out


@dataclass(frozen=True)
class CheckStats:
    """Aggregated outcome of one named check over the sampled games.

    An expected-negative check is an intentional fixture: it is OK exactly
    when it fails at least once (or has no applicable games at all), and
    it flags the suite when it never fails despite applicable games.
    """

    check_id: str
    passed: int
    failed: int
    skipped: int
    expected_negative: bool = False
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        if self.expected_negative:
            return self.failed >= 1 or (self.passed + self.failed) == 0
        return self.failed == 0


def _tally(
    check_id: str,
    cases: Iterable[Any],
    check: Callable[[Any], Witness | None],
    skips: Tuple[type, ...] = (),
    *,
    scope: Sequence[bool] | None = None,
    expected_negative: bool = False,
) -> CheckStats:
    """One suite row: check(case) returns a witness on failure, else None.

    A case is skipped when its scope flag is false (check is not called) or
    when check raises one of the skips types.  The first witness is kept.
    Cases are consumed before returning, so check may close over loop
    variables of the caller.
    """
    passed = failed = skipped = 0
    witness = None
    for k, case in enumerate(cases):
        if scope is not None and not scope[k]:
            skipped += 1
            continue
        try:
            found = check(case)
        except skips:
            skipped += 1
            continue
        if found is None:
            passed += 1
        else:
            failed += 1
            if witness is None:
                witness = found
    return CheckStats(check_id, passed, failed, skipped, expected_negative, witness)


@dataclass(frozen=True)
class SuiteReport:
    """Machine-readable aggregate of the full check suite."""

    seed: int
    game_count: int
    checks: Tuple[CheckStats, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        # Every witness's sides, spelled in one call and read in row order.
        witnesses = [c.witness for c in self.checks if c.witness is not None]
        sides = iter(_spelled(*chain.from_iterable((w._lhs, w._rhs) for w in witnesses)))

        def witness_dict(w: Witness | None):
            if w is None:
                return None
            return {"component": w.component, "lhs": next(sides), "rhs": next(sides)}

        return {
            "seed": self.seed,
            "game_count": self.game_count,
            "ok": self.ok,
            "checks": [
                {
                    "check_id": c.check_id,
                    "passed": c.passed,
                    "failed": c.failed,
                    "skipped": c.skipped,
                    "expected_negative": c.expected_negative,
                    "ok": c.ok,
                    "witness": witness_dict(c.witness),
                }
                for c in self.checks
            ],
        }


# Positive bound-pair fixtures: (pair, class predicate), the pairs read from
# the values tables.  The predicate picks the games on which the pair
# provably satisfies all three conditions, None meaning every game;
# out-of-class games are skipped, not failed.
def _pred_ordered(v: TUGame) -> bool:
    return _at_most(v._singletons, v._marginals)


def _pred_pansc(v: TUGame) -> bool:
    # Signs only, so the ints over the game's denominator will do.
    return v.scaled[1][-1] >= 0 and all(c >= 0 for c in v._marginals[1])


_POSITIVE_PAIRS = (
    (values.AXIOM_PAIRS["km"], None),
    (values.AXIOM_PAIRS["tau"], partial(in_class, name="semi-balanced")),
    (values.AXIOM_PAIRS["chi"], None),
    (values.AXIOM_PAIRS["cis"], partial(in_class, name="weakly-essential")),
    values.EANSC_ROUTES["(M, eta^M)"],
    values.EANSC_ROUTES["(mu~, M)"],
    (values.AXIOM_PAIRS["pansc"], _pred_pansc),
    (values.AXIOM_PAIRS["gately"], _pred_ordered),
)

# The per-value axiom rows beyond Efficiency, MinimalRights and the
# proportionality axiom, which every value gets, in report order.  Each row
# runs on the games where its value is defined.
_VALUE_AXIOM_ROWS = (
    ("Covariance", "tau"), ("Covariance", "chi"),
    ("SelfDuality", "km"),
    ("IndividualRationality", "cis"), ("IndividualRationality", "tau"),
    ("IndividualRationality", "chi"), ("IndividualRationality", "gately"),
)
_COVARIANCE_SCALES = (Fraction(1, 2), Fraction(1), Fraction(3))


def _random_shift(rng: random.Random, n: int) -> _Scaled:
    """n draws p / q, p from [-6, 6] and then q from [1, 3], as one scaled
    pair; a zero first component becomes 1 when every draw is zero."""
    L, shift = _scale(_draw_pairs(rng, -6, 6, 3, n))
    if not any(shift):
        shift[0] = L
    return L, tuple(shift)


def _is_defined(f: Callable[[TUGame], values.ValueResult], v: TUGame) -> bool:
    try:
        f(v)
    except DomainError:
        return False
    return True


def _eansc_dual_identity(v: TUGame) -> Witness | None:
    """EANSC of v equals CIS of the dual game, v*_i + (v*(N) - sum_j v*_j) / n."""
    star = dual(v)
    cis_of_dual = _share(star._singletons, star._scaled_total, v.n)
    return _witness(values.eansc(v)._scaled, cis_of_dual)


def _eansc_route_agreement(v: TUGame) -> Witness | None:
    """EANSC and its rebuild through each bound-pair route that covers v
    equal the closed form M_i + (v(N) - sum_j M_j) / n."""
    closed = _share(v._marginals, v._scaled_total, v.n)
    allocations = [values.eansc(v)._scaled]
    allocations += [
        values.compromise(
            v, functional(mu)._scaled(v), functional(eta)._scaled(v)
        )._scaled
        for (mu, eta), covers in values.EANSC_ROUTES.values()
        if covers(v)
    ]
    for alloc in allocations:
        witness = _witness(alloc, closed)
        if witness is not None:
            return witness
    return None


def _semi_balanced_order(v: TUGame) -> Witness | None:
    """The coalition-wise test v(S) <= M(S) for every nonempty S agrees
    with the order m(v) <= M(v), by which in_class decides semi-balanced.

    Each R_i(S, v) <= M_i rearranges to the coalition bound and conversely.
    The bound-sum bracket sum(m) <= v(N) <= sum(M) is not equivalent: with
    n = 3, v({3}) = 1, v({1,2}) = 3, v(N) = 3 and every other worth 0,
    m = (0, 0, 1) and M = (3, 3, 0) meet the bracket, yet m_3 > M_3.
    """
    M = v._marginals
    m = bounds.REGISTRY["MinimalRights"]._scaled(v)
    if bounds.is_strongly_upper_bounded(v, M) == _at_most(m, M):
        return None
    return Witness._from_scaled(0, m, M)


def run_suite_on_games(
    games: Sequence[TUGame],
    *,
    seed: int = 0,
    convex_games: Sequence[TUGame] | None = None,
    negative_fixtures: bool = True,
) -> SuiteReport:
    """Run every check block over the given games; fully deterministic.

    Probes for covariance checks are drawn from a generator seeded by the
    seed argument, independent of the game sampler: one shift and one (a, y)
    probe per game, each shared by its rows (see the module docstring).  If
    convex_games is None, coincidence checks run on the convex members of
    games.  Expected negative fixtures are sample-level diagnostics (they
    must fail at least once across the whole batch); negative_fixtures=False
    omits them, which is what single-game checks want.

    A game outside a value's class counts in two ways.  The Efficiency,
    Covariance, SelfDuality and IndividualRationality rows count it as
    skipped; the MinimalRights and proportionality rows leave it out, so
    their counts add up to the in-class games only.
    """
    rng = random.Random(seed ^ 0x5EED)
    if convex_games is None:
        convex_games = [v for v in games if in_class(v, "convex")]
    checks: list[CheckStats] = []

    # Bound-pair positives, and the two intentional negative fixtures.
    for (mu, eta), pred in _POSITIVE_PAIRS:
        checks.append(_tally(
            f"bound_pair:{functional(mu).id},{functional(eta).id}",
            games, lambda v: bounds.check_bound_pair(v, mu, eta).witness,
            scope=None if pred is None else [pred(v) for v in games],
        ))
    # With one player EtaTrivial is v(N) = v({1}): translation covariant, and
    # (IndividualWorths, EtaTrivial) a bound pair, so its negative rows skip n = 1.
    multi = [v.n >= 2 for v in games]
    if negative_fixtures:
        checks.append(_tally(
            "bound_pair:IndividualWorths,EtaTrivial", games,
            lambda v: bounds.check_bound_pair(v, "IndividualWorths", "EtaTrivial").witness,
            expected_negative=True, scope=multi,
        ))
        checks.append(_tally(
            "regular_lower:ConstantOne", games,
            lambda v: bounds.is_regular_lower(v, "ConstantOne").witness,
            (NotInClass,), expected_negative=True,
        ))

    # Translation covariance of every registry functional, checked against
    # its registry flag; every row runs on one game v + x per game.
    shifts = [_random_shift(rng, v.n) for v in games]
    shifted = [(v, transform(v, 1, x), x) for v, x in zip(games, shifts)]
    for fn_id, fn in bounds.REGISTRY.items():
        if fn.is_translation_covariant or negative_fixtures:
            checks.append(_tally(
                f"covariance_functional:{fn_id}", shifted,
                lambda case: bounds._translation_covariance(fn, *case),
                (TooFewPlayers,), expected_negative=not fn.is_translation_covariant,
                scope=multi if fn_id == "EtaTrivial" else None,
            ))
    del shifted

    # Regularity of the flagged regular lower bounds on their classes.
    for fn_id, fn in bounds.REGISTRY.items():
        if fn.is_regular_lower is True:
            checks.append(_tally(
                f"regular_lower:{fn_id}", games,
                lambda v: bounds.is_regular_lower(v, fn).witness,
                (NotInClass, TooFewPlayers),
            ))

    # Per-value axiom blocks on in-class games.  Whether each value is
    # defined on each game is decided once, here.
    defined = {
        vid: [_is_defined(f, v) for v in games] for vid, f in values.VALUES.items()
    }
    for vid in values.VALUES:
        applies = [v for v, ok in zip(games, defined[vid]) if ok]
        checks.append(_tally(
            f"axiom:Efficiency:{vid}", games,
            lambda v: check_axiom("Efficiency", vid, v).witness, scope=defined[vid],
        ))
        checks.append(_tally(
            f"axiom:MinimalRights:{vid}", applies,
            lambda v: check_axiom("MinimalRights", vid, v).witness,
            (PreconditionNotMet, TooFewPlayers),
        ))
        prop = "EgalitarianDivision" if vid in values.LBC_FAMILY else "RestrictedProportionality"
        mu_fn, _ = _pair(vid)
        checks.append(_tally(
            f"axiom:{prop}:{vid}", applies,
            lambda v: check_axiom(prop, vid, mu_fn.shifted(v)).witness,
            (PreconditionNotMet, TooFewPlayers),
        ))

    # Every game's probe is drawn, so the stream does not depend on classes;
    # the tau and chi rows share a * v + x, built where either is defined.
    probed = []
    for k, v in enumerate(games):
        a, x = _COVARIANCE_SCALES[k % len(_COVARIANCE_SCALES)], _random_shift(rng, v.n)
        covered = defined["tau"][k] or defined["chi"][k]
        probed.append((v, transform(v, a, x) if covered else None, a, x))
    for axiom_id, vid in _VALUE_AXIOM_ROWS:
        if axiom_id == "Covariance":
            cases, row = probed, lambda case: _covariance(vid, *case)
        else:
            probed = None  # the Covariance rows are done: release their games
            cases, row = games, lambda v: check_axiom(axiom_id, vid, v).witness
        checks.append(_tally(
            f"axiom:{axiom_id}:{vid}", cases, row,
            (PreconditionNotMet,), scope=defined[vid],
        ))

    # EANSC structure, the semi-balanced order, and convex coincidence.
    checks.append(_tally("eansc_dual_identity", games, _eansc_dual_identity))
    checks.append(_tally("eansc_route_agreement", games, _eansc_route_agreement))
    checks.append(_tally("semi_balanced_order", games, _semi_balanced_order))
    checks.append(_tally(
        "convex_coincidence", convex_games,
        lambda v: check_convex_coincidence(v).witness, (NotInClass,),
    ))

    return SuiteReport(seed=seed, game_count=len(games), checks=tuple(checks))


def run_suite(config: SamplerConfig) -> SuiteReport:
    """Sample games per the config and run every check block on them.

    When the config filter is not convex, a dedicated convex batch (a tenth
    of the count, at least one, derived seed) feeds the coincidence check.
    """
    games = sample_games(config)
    if config.class_filter == "convex":
        convex_games: Sequence[TUGame] = games
    elif config.count == 0:
        convex_games = []
    else:
        convex_games = sample_games(
            replace(
                config,
                class_filter="convex",
                count=max(1, config.count // 10),
                seed=config.seed + 1,
            )
        )
    return run_suite_on_games(games, seed=config.seed, convex_games=convex_games)
