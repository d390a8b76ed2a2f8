"""Per-player bound functionals and the two generic bound constructions.

A bound functional maps a game to a vector of exact rationals, one per
player, read as a lower or upper bound on payoffs.  The registry names the
functionals used by the compromise values:

    MarginalContributions  M_i = v(N) - v(N-i)          (utopia vector)
    MinimalRights          m_i = max_{S: i in S} [ v(S) - sum_{j in S-i} M_j ]
    KikutaLower            min_{S: i in S} [ v(S) - v(S-i) ]
    MilnorUpper            max_{S: i in S} [ v(S) - v(S-i) ]
    IndividualWorths       nu_i = v({i})
    ZeroLower              0
    EtaTrivial             eta0_i = v(N)
    EtaPrime               eta'_i = v(N) - sum_{j != i} v_j
    EanscTildeLower        mu~_i = M_i + (v(N) - sum_j M_j) / (n - 1)
    EtaFromM               etaM_i = v(N) - sum_{j != i} M_j
    ConstantOne            1   (intentional negative fixture)

Two constructions derive one side of a pair from the other.  From a lower
bound mu, eta^mu_i = v(N) - sum_{j != i} mu_j.  From a translation covariant
upper bound eta, mu^eta_i = max over nonempty S containing i of
R_i(S, v) = v(S) - sum_{j in S-i} eta_j(v).  Only mu_from_upper derives
mu^eta from a functional; strong upper bounds are read off mu^eta <= eta.

A pair (mu, eta) is a bound pair on a game v when (i) mu(v) <= eta(v)
componentwise, (ii-a) mu(v - mu(v)) = 0, and (ii-b) eta(v - mu(v)) =
eta(v) - mu(v), where v - x subtracts the additive game of x.

A check reports a failure as data, a Witness: the first component where
the condition fails, found by first_difference(lhs, rhs, holds), or by
_witness on scaled pairs.  Check results store only witnesses; passed and
the property_*_holds flags are read off them.

Every sweep of the worth table runs in coopvals.game, in O(n * 2^n):
_extreme_marginals, _derived_lower (mu^eta) and _max_excess (strong upper
bounds, b-hat); this module reads no scaled table.  One marginal sweep
per game gives both the Kikuta and the Milnor vector: each player's
marginal contributions are listed once and their min and max both kept in
the game's memo, so kikuta_lower and milnor_upper on one game cost one
pass over the table.  The pass that decides the monotonic and convex
classes keeps the same two pairs: on a game that the Harsanyi dividend
certificate shows convex they are the singleton and marginal vectors,
read with no list, and on any other game (a non-convex game, or a convex
one with a negative dividend, such as a bankruptcy game) the walk lists
the same contributions.  So on a game classified first (as `report` and
`check --game` do) the bounds cost no pass of their own;
_extreme_marginals sweeps only a game whose class was never asked for.

The functionals of this module evaluate to scaled pairs (L, X), as the
game sweeps give them, and a BoundFunctional keeps that pair per game
(fn._scaled(v)); fn(v) is its Fraction view, built from it on each call.
Sums of bound vectors, the componentwise formulas (eta^mu, mu~, eta - mu,
fn(v) + x) and every comparison of a check run on the pairs through the
vector step of coopvals.game (_total, _share, _affine, _at_most,
_first_failure), so a check builds no Fraction.  The witness of a failure
keeps the pairs of its two sides, and lhs and rhs are views of them built
on first read; its printed text is spelled from the pairs (by
SuiteReport.to_dict, all of a report's witnesses at once), so a check
suite that reports one witness per row builds no Fraction.  The
game v - fn(v) is kept per game under the reduced pair of fn(v), so the
functionals with one vector on v (on a convex game, Kikuta's bound, the
individual worths and mu^Milnor) share one shifted game and its sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq, le
from typing import Callable, Sequence, Tuple, Union

from .errors import (
    CoopvalsError,
    NonCovariantUpperBound,
    NotInClass,
    TooFewPlayers,
    UnknownBoundFunctional,
)
from .game import (
    TUGame,
    _affine,
    _at_most,
    _derived_lower,
    _extreme_marginals,
    _first_failure,
    _fractions,
    _max_excess,
    _mu_from,
    _ratio,
    _reduced,
    _Scaled,
    _share,
    _total,
    _vector,
    _Views,
    as_fraction,
    in_class,
    marginal_contributions,
    subtract_allocation,
    transform,
)

__all__ = [
    "BoundVector",
    "BoundFunctional",
    "Witness",
    "CheckOutcome",
    "BoundPairReport",
    "MembershipReport",
    "REGISTRY",
    "MU_FROM_MILNOR",
    "functional",
    "evaluate_bound",
    "marginal_contributions",
    "minimal_rights",
    "kikuta_lower",
    "milnor_upper",
    "zero_lower",
    "eta_trivial",
    "eta_prime",
    "eta_from_m",
    "eansc_tilde_lower",
    "eta_from_lower",
    "mu_from_upper",
    "mu_from_upper_vector",
    "derived_lower_from_upper",
    "derived_upper_from_lower",
    "constant_lower",
    "first_difference",
    "check_bound_pair",
    "is_regular_lower",
    "check_translation_covariance",
    "membership",
    "is_strongly_upper_bounded",
]

BoundVector = Tuple[Fraction, ...]


def kikuta_lower(v: TUGame) -> BoundVector:
    """Per-player minimum marginal contribution over coalitions containing
    them, from the sweep that gives milnor_upper too."""
    return REGISTRY["KikutaLower"](v)


def milnor_upper(v: TUGame) -> BoundVector:
    """Per-player maximum marginal contribution over coalitions containing
    them, from the sweep that gives kikuta_lower too."""
    return REGISTRY["MilnorUpper"](v)


def zero_lower(v: TUGame) -> BoundVector:
    return REGISTRY["ZeroLower"](v)


def eta_trivial(v: TUGame) -> BoundVector:
    """eta0_i(v) = v(N) for every player."""
    return REGISTRY["EtaTrivial"](v)


def eta_prime(v: TUGame) -> BoundVector:
    """eta'_i(v) = v(N) - sum_{j != i} v_j."""
    return REGISTRY["EtaPrime"](v)


def eta_from_m(v: TUGame) -> BoundVector:
    """etaM_i(v) = v(N) - sum_{j != i} M_j(v)."""
    return REGISTRY["EtaFromM"](v)


def eansc_tilde_lower(v: TUGame) -> BoundVector:
    """The lower bound solving sum_{j != i} mu~_j(v) = v(N-i) for every i.

    Closed form: mu~_i = M_i(v) + (v(N) - sum_j M_j(v)) / (n - 1).
    """
    return REGISTRY["EanscTildeLower"](v)


def _eansc_tilde(v: TUGame) -> _Scaled:
    if v.n < 2:
        raise TooFewPlayers("the EANSC tilde lower bound needs n >= 2")
    return _share(v._marginals, v._scaled_total, v.n - 1)


def _eta_from(v: TUGame, mu: _Scaled) -> _Scaled:
    # v(N) - (sum(mu) - mu_i) = mu_i + (v(N) - sum(mu)).
    return _share(mu, v._scaled_total, 1)


def eta_from_lower(v: TUGame, mu: Sequence[Fraction]) -> BoundVector:
    """The residual upper bound eta^mu_i(v) = v(N) - sum_{j != i} mu_j(v)."""
    return _fractions(_eta_from(v, _vector(mu, v.n, "lower bound")))


def mu_from_upper_vector(v: TUGame, eta: Sequence[Fraction]) -> BoundVector:
    """mu^eta_i = eta_i + max_{S: i in S} (v(S) - eta(S)) for an evaluated
    eta, added in ints over the excess table's denominator."""
    return _fractions(_derived_lower(v, eta))


def mu_from_upper(v: TUGame, eta_id: Union[str, "BoundFunctional"]) -> BoundVector:
    """The derived lower bound mu^eta_i(v) = max_{S: i in S} R_i(S, v).

    R_i(S, v) = v(S) - sum_{j in S-i} eta_j(v), with S ranging over nonempty
    coalitions containing i, so mu^eta >= individual worths always, and
    mu^eta <= eta exactly when v(S) <= eta(S) for every S.  Requires a
    translation covariant upper bound (the registry flag is checked)."""
    return _fractions(_mu_from_upper(v, functional(eta_id)))


def _mu_from_upper(v: TUGame, fn: "BoundFunctional") -> _Scaled:
    """mu^eta as a pair for the pair eta of fn on v, kept by game._mu_from."""
    if not fn.is_translation_covariant:
        raise NonCovariantUpperBound(
            f"{fn.id} is not translation covariant; cannot derive a lower bound"
        )
    return _mu_from(v, fn._scaled(v))


def minimal_rights(v: TUGame) -> BoundVector:
    """The minimal rights vector: mu_from_upper with the marginal vector."""
    return REGISTRY["MinimalRights"](v)


@dataclass(frozen=True, eq=False)
class BoundFunctional:
    """A named bound functional plus its registry flags.

    is_regular_lower is None when the functional is not meant to serve as a
    lower bound.  Covariance flags are set from proven claims and re-checked
    empirically by the test suite.

    evaluate(v) gives the bound vector as rationals, or as its scaled pair
    (L, X) as every functional of this module does.  Call the functional,
    fn(v), rather than fn.evaluate(v): evaluate runs once per game, and its
    pair, refused unless it has one component per player, is kept in the
    game's memo; fn(v) builds its Fractions.  Functionals compare and hash
    by identity, so they key that memo even while evaluate is swapped in
    place (as instrumentation does).
    """

    id: str
    evaluate: Callable[[TUGame], Union[BoundVector, _Scaled]]
    is_translation_covariant: bool
    is_regular_lower: bool | None = None

    def __call__(self, v: TUGame) -> BoundVector:
        """evaluate(v) as Fractions, built from its pair."""
        return _fractions(self._scaled(v))

    def _scaled(self, v: TUGame) -> _Scaled:
        """evaluate(v) as a scaled pair of n components, once per game."""
        return v.remember(self, lambda: _vector(self.evaluate(v), v.n, self.id))

    def shifted(self, v: TUGame) -> TUGame:
        """The game v - self(v), built once per game and vector, so two
        functionals with one vector on v share it; v itself when the vector
        is zero."""
        x = _reduced(self._scaled(v))
        if not any(x[1]):
            return v
        return v.remember(("shifted", x), lambda: subtract_allocation(v, x))


def constant_lower(value: int | Fraction = 1, id: str | None = None) -> BoundFunctional:
    """A constant lower bound.  Not regular unless the constant is zero."""
    c = as_fraction(value)
    p, q = _ratio(c)
    return BoundFunctional(
        id=id or f"Constant({c})",
        evaluate=lambda v: (q, (p,) * v.n),
        is_translation_covariant=False,
        is_regular_lower=(p == 0),
    )


def derived_upper_from_lower(mu_id: Union[str, BoundFunctional]) -> BoundFunctional:
    """Registry wrapper for eta^mu; covariant whenever mu is."""
    fn = functional(mu_id)
    return BoundFunctional(
        id=f"EtaFrom({fn.id})",
        evaluate=lambda v: _eta_from(v, fn._scaled(v)),
        is_translation_covariant=fn.is_translation_covariant,
        is_regular_lower=None,
    )


def derived_lower_from_upper(eta_id: Union[str, BoundFunctional]) -> BoundFunctional:
    """Registry wrapper for mu^eta; requires a covariant upper bound.

    The derived lower bound is itself translation covariant, hence regular.
    """
    fn = functional(eta_id)
    if not fn.is_translation_covariant:
        raise NonCovariantUpperBound(
            f"{fn.id} is not translation covariant; cannot derive a lower bound"
        )
    return BoundFunctional(
        id=f"MuFrom({fn.id})",
        evaluate=lambda v: _mu_from_upper(v, fn),
        is_translation_covariant=True,
        is_regular_lower=True,
    )


# Each evaluates to the pair of the public function of the same name above.
REGISTRY: dict[str, BoundFunctional] = {
    fn.id: fn
    for fn in (
        BoundFunctional("MarginalContributions", lambda v: v._marginals, True, True),
        BoundFunctional(
            "MinimalRights",
            lambda v: _mu_from_upper(v, REGISTRY["MarginalContributions"]),
            True, True,
        ),
        BoundFunctional("KikutaLower", lambda v: _extreme_marginals(v)[0], True, True),
        BoundFunctional("MilnorUpper", lambda v: _extreme_marginals(v)[1], True, None),
        BoundFunctional("IndividualWorths", lambda v: v._singletons, True, True),
        constant_lower(0, id="ZeroLower"),
        BoundFunctional(
            "EtaTrivial", lambda v: (v.scaled[0], (v.scaled[1][-1],) * v.n), False, None
        ),
        BoundFunctional("EtaPrime", lambda v: _eta_from(v, v._singletons), True, None),
        BoundFunctional("EanscTildeLower", _eansc_tilde, True, True),
        BoundFunctional("EtaFromM", lambda v: _eta_from(v, v._marginals), True, None),
        constant_lower(1, id="ConstantOne"),
    )
}


def functional(fn_id: Union[str, BoundFunctional]) -> BoundFunctional:
    if isinstance(fn_id, BoundFunctional):
        return fn_id
    try:
        return REGISTRY[fn_id]
    except KeyError:
        raise UnknownBoundFunctional(fn_id) from None


def evaluate_bound(v: TUGame, fn_id: Union[str, BoundFunctional]) -> BoundVector:
    return functional(fn_id)(v)


# mu^eta for the Milnor bound: the lower side of the chi pair.  Kept out of
# REGISTRY, which the verification suite walks row by row.
MU_FROM_MILNOR = derived_lower_from_upper("MilnorUpper")


@dataclass(frozen=True)
class Witness(_Views):
    """A concrete violation: the first failing component and both sides.

    A witness of _witness keeps the scaled pairs of its sides, and lhs and
    rhs are views of them, built on first read.  Witness(component, lhs,
    rhs) keeps the sides it is given and their pairs over 1.
    """

    component: int
    lhs: Tuple[Fraction, ...]
    rhs: Tuple[Fraction, ...]

    _PAIRS = {"lhs": "_lhs", "rhs": "_rhs"}

    @classmethod
    def _from_scaled(cls, component: int, lhs: _Scaled, rhs: _Scaled) -> Witness:
        return cls._of(component=component, _lhs=lhs, _rhs=rhs)


def first_difference(
    lhs: Sequence[Fraction],
    rhs: Sequence[Fraction],
    holds: Callable[[Fraction, Fraction], bool] = eq,
) -> Witness | None:
    """The first component i where holds(lhs[i], rhs[i]) fails, with both
    sides, or None when it holds everywhere.  The default asks lhs == rhs;
    holds=le asks lhs <= rhs; sides of unequal length are refused."""
    if len(lhs) != len(rhs):
        raise CoopvalsError(f"rhs must have {len(lhs)} components, got {len(rhs)}")
    # Over L = 1, holds sees the components as given.
    return _witness((1, tuple(lhs)), (1, tuple(rhs)), holds)


def _witness(lhs: _Scaled, rhs: _Scaled, holds=eq) -> Witness | None:
    """first_difference on two scaled pairs, compared by _first_failure;
    a failure's witness keeps both pairs, and builds the Fractions of a
    side only when it is read."""
    i = _first_failure(lhs, rhs, holds)
    return None if i is None else Witness._from_scaled(i, lhs, rhs)


@dataclass(frozen=True)
class CheckOutcome:
    """Named property check result: the witness of its failure, or None.

    The witness is the only state; passed is read off it."""

    check_id: str
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class BoundPairReport:
    """The three defining bound-pair conditions on one game, each stored
    as the witness of its failure or None; every flag is read off them."""

    mu_id: str
    eta_id: str
    witness_i: Witness | None = None
    witness_iia: Witness | None = None
    witness_iib: Witness | None = None

    @property
    def witness(self) -> Witness | None:
        """The first failure among (i), (ii-a) and (ii-b), or None."""
        return self.witness_i or self.witness_iia or self.witness_iib

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def property_i_holds(self) -> bool:
        return self.witness_i is None

    @property
    def property_iia_holds(self) -> bool:
        return self.witness_iia is None

    @property
    def property_iib_holds(self) -> bool:
        return self.witness_iib is None


def check_bound_pair(
    v: TUGame,
    mu_id: Union[str, BoundFunctional],
    eta_id: Union[str, BoundFunctional],
) -> BoundPairReport:
    """Evaluate conditions (i), (ii-a), (ii-b) on v and on v - mu(v).

    Failures are reported as data with witnesses, not raised.
    """
    mu_fn, eta_fn = functional(mu_id), functional(eta_id)
    mu, eta = mu_fn._scaled(v), eta_fn._scaled(v)
    shifted = mu_fn.shifted(v)
    return BoundPairReport(
        mu_fn.id,
        eta_fn.id,
        witness_i=_witness(mu, eta, le),
        witness_iia=_witness(mu_fn._scaled(shifted), (1, (0,) * v.n)),
        witness_iib=_witness(eta_fn._scaled(shifted), _affine(-1, mu, eta)),
    )


def is_regular_lower(
    v: TUGame, mu_id: Union[str, BoundFunctional]
) -> CheckOutcome:
    """Check mu(v - mu(v)) = 0 for a game in the lower-bound class of mu."""
    fn = functional(mu_id)
    if not _at_most(_total(fn._scaled(v)), v._scaled_total):
        raise NotInClass(f"B_l({fn.id})")
    zero = (1, (0,) * v.n)
    return CheckOutcome(
        f"regular_lower:{fn.id}", _witness(fn._scaled(fn.shifted(v)), zero)
    )


def check_translation_covariance(
    fn_id: Union[str, BoundFunctional],
    v: TUGame,
    x: Sequence[Fraction],
) -> CheckOutcome:
    """Check fn(v + x) = fn(v) + x exactly for the given probe x (rationals or
    a scaled pair); the suite runs this check on one shared v + x per game."""
    fn = functional(fn_id)
    x = _vector(x, v.n)
    witness = _translation_covariance(fn, v, transform(v, 1, x), x)
    return CheckOutcome(f"translation_covariance:{fn.id}", witness)


def _translation_covariance(
    fn: BoundFunctional, v: TUGame, moved: TUGame, x: _Scaled
) -> Witness | None:
    """The witness of fn(moved) != fn(v) + x, for moved the game v + x."""
    return _witness(fn._scaled(moved), _affine(1, fn._scaled(v), x))


@dataclass(frozen=True)
class MembershipReport:
    """Class membership flags of one game for one candidate bound pair.

    in_proper_upper needs the derived lower bound mu^eta and is therefore
    None when eta is not translation covariant.  in_b_hat and in_b_tilde do
    not depend on the chosen pair.
    """

    in_balanced: bool
    in_lower_class: bool
    in_strong_upper: bool
    in_proper_upper: bool | None
    in_b_hat: bool
    in_b_tilde: bool


def is_strongly_upper_bounded(v: TUGame, eta: Sequence[Fraction]) -> bool:
    """v(S) <= sum_{i in S} eta_i for every nonempty coalition S."""
    return _at_most(_max_excess(v, eta), (1, (0,)))


def membership(
    v: TUGame,
    mu_id: Union[str, BoundFunctional],
    eta_id: Union[str, BoundFunctional],
) -> MembershipReport:
    """Exact enumeration of all class membership flags for the pair."""
    mu_fn, eta_fn = functional(mu_id), functional(eta_id)
    mu, eta = mu_fn._scaled(v), eta_fn._scaled(v)
    vN = v._scaled_total
    in_lower = _at_most(_total(mu), vN)
    in_balanced = in_lower and _at_most(vN, _total(eta))
    if eta_fn.is_translation_covariant:
        derived = _mu_from_upper(v, eta_fn)
        in_strong = _at_most(derived, eta)
        in_proper: bool | None = in_strong and _at_most(_total(derived), vN)
    else:
        in_strong, in_proper = is_strongly_upper_bounded(v, eta), None

    # b_hat: v(S) - nu(S) <= (|S| - 1) * slack for nonempty S, with slack =
    # v(N) - sum(nu), that is, the excess of v over the vector nu + slack,
    # which is eta^nu, is at most -slack.
    nu = v._singletons
    in_b_hat = _at_most(_max_excess(v, _eta_from(v, nu)), _affine(-1, vN, _total(nu)))
    return MembershipReport(
        in_balanced=in_balanced,
        in_lower_class=in_lower,
        in_strong_upper=in_strong,
        in_proper_upper=in_proper,
        in_b_hat=in_b_hat,
        in_b_tilde=in_class(v, "M-upper"),
    )
