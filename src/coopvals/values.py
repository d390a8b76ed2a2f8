"""The generic compromise engine and the named compromise values.

Given a lower vector mu and an upper vector eta with mu <= eta and
sum(mu) <= v(N) <= sum(eta), the compromise point is the unique efficient
point on the segment between them:

    gamma = lam * eta + (1 - lam) * mu,
    lam   = (v(N) - sum(mu)) / (sum(eta) - sum(mu)),

with gamma = mu and no mixing weight when mu = eta exactly.

Two constructions feed the engine.  An LBC value starts from a regular
lower bound mu and pairs it with eta^mu; the result collapses to
gamma_i = mu_i + (v(N) - sum(mu)) / n.  A UBC value starts from a
translation covariant upper bound eta and pairs it with the derived
mu^eta.  The named values are tau, chi, Gately, CIS, PANSC, EANSC, the
Egalitarian value, and the KM value; each reports the bound vectors it
used.  Each refuses a game by naming the inequality of its pair that
failed: tau, chi, CIS, Egalitarian, KM and both constructions are
compromise of their pair, and Gately and PANSC, with wider domains, check
their pair's order or bracket themselves.

The functions here only compute: they check their inputs and trust the
registry flags, and each named value is computed once per game and read
back from the game's memo after that.  Bound vectors come in as the scaled
pairs (L, X) of their functionals, and the checks compare those ints.
Every weight and allocation is formed by one step, _mix, in ints.  The
result keeps the pairs: the allocation's, which the verification suite
reads, lam's (num, den), and those of the two bounds.  Its Fraction
fields are views of them, built on first read, so a result that is only
checked builds no Fraction.  The identities that tie the named formulas
to the engine (the mixture identity, closed forms, agreeing routes) are
checked by the test suite and by the verification suite in
coopvals.verify, not on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import le
from typing import Callable, Sequence, Tuple, Union

from . import bounds
from .bounds import BoundFunctional, BoundVector, functional
from .errors import (
    BoundOrderViolated,
    DegenerateBounds,
    NotBalanced,
    NotRegularLowerBound,
)
from .game import (
    TUGame,
    _common,
    _first_failure,
    _fractions,
    _Scaled,
    _scaled_vector,
    _vector,
    _Views,
    in_class,
)

__all__ = [
    "ValueResult",
    "compromise",
    "lbc_value",
    "ubc_value",
    "tau",
    "chi",
    "gately",
    "cis",
    "pansc",
    "egalitarian",
    "eansc",
    "km",
    "VALUES",
    "AXIOM_PAIRS",
    "EANSC_ROUTES",
    "LBC_FAMILY",
]


@dataclass(frozen=True)
class ValueResult(_Views):
    """An allocation plus the bound pair and mixing weight that produced it.

    lam is the weight on the upper bound and is absent when the two bounds
    coincide.  For results built here, allocation = lower_used + lam *
    (upper_used - lower_used), and the test suite checks that identity.
    The engine guarantees efficiency and bracketing for results it
    produces; PANSC outside its bracket reports lam > 1 (see pansc).

    A result of _mix keeps scaled pairs, as _from_scaled takes them, and
    allocation, lam, lower_used and upper_used are views of them, built on
    first read.  ValueResult(value_id, allocation, lam, lower_used,
    upper_used, route) keeps the fields it is given and their pairs over 1,
    lam's as (lam, 1).  _scaled is the allocation's pair, which the
    verification suite reads.
    """

    value_id: str
    allocation: Tuple[Fraction, ...]
    lam: Fraction | None
    lower_used: Tuple[Fraction, ...]
    upper_used: Tuple[Fraction, ...]
    route: str | None = None

    _PAIRS = {"allocation": "_scaled", "lower_used": "_lower", "upper_used": "_upper"}
    _VIEWS = {"lam": lambda r: None if r._lam is None else Fraction(*r._lam)}

    def __post_init__(self) -> None:
        super().__post_init__()
        self.__dict__["_lam"] = None if self.lam is None else (self.lam, 1)

    @classmethod
    def _from_scaled(
        cls,
        value_id: str,
        allocation: _Scaled,
        lam: Tuple[int, int] | None,
        lower: _Scaled,
        upper: _Scaled,
        route: str | None = None,
    ) -> ValueResult:
        """The result with the allocation and bounds of these pairs and
        lam = num / den for lam = (num, den), den > 0, or None."""
        return cls._of(
            value_id=value_id, route=route, _scaled=allocation, _lam=lam,
            _lower=lower, _upper=upper,
        )


def _mix(
    v: TUGame,
    mu: Union[BoundVector, _Scaled],
    eta: Union[BoundVector, _Scaled],
    value_id: str,
    route: str | None = None,
    scaled: Tuple[int, list] | None = None,
) -> ValueResult:
    """The efficient point mu + lam * (eta - mu); no weight when mu = eta.

    mu and eta are scaled pairs, or Fraction tuples, which the result keeps
    as the pairs of its lower_used and upper_used.  With mu, eta and v(N)
    over one common denominator L as the ints M, E and V, lam = num / den
    for num = V - sum(M) and den = sum(E) - sum(M), and alloc_i = (M_i *
    den + num * (E_i - M_i)) / (L * den).  scaled is (L, (M, E, (V,))) as
    _common gives it, when the caller has it already.  Callers guard their
    own domain; this only needs sum(eta) != sum(mu) whenever mu != eta.
    """
    mu, eta = _scaled_vector(mu), _scaled_vector(eta)
    L, (M, E, (V,)) = scaled or _common(mu, eta, v._scaled_total)
    if M == E:
        alloc, lam = mu, None
    else:
        s_mu = sum(M)
        num, den = V - s_mu, sum(E) - s_mu
        if den < 0:
            num, den = -num, -den
        alloc = (L * den, tuple(m * den + num * (e - m) for m, e in zip(M, E)))
        if type(den) is not int:  # past SCALE_CAP: M, E and V are Fractions
            alloc = (1, _fractions(alloc))
        lam = (num, den)
    return ValueResult._from_scaled(value_id, alloc, lam, mu, eta, route)


def compromise(
    v: TUGame,
    mu: Sequence,
    eta: Sequence,
    *,
    value_id: str = "compromise",
    route: str | None = None,
) -> ValueResult:
    """The (mu, eta)-compromise point of v, for mu and eta given as
    rationals or as scaled pairs.

    Raises BoundOrderViolated if mu exceeds eta in some component and
    NotBalanced if v(N) falls outside [sum(mu), sum(eta)].
    """
    mu = _vector(mu, v.n, "lower bound")
    eta = _vector(eta, v.n, "upper bound")
    scaled = _common(mu, eta, v._scaled_total)
    L, (M, E, (V,)) = scaled
    # Over the L that _mix needs anyway, the comparison takes no product.
    i = _first_failure((L, M), (L, E), le)
    if i is not None:
        raise BoundOrderViolated(i, L, M[i], E[i])
    s_mu, s_eta = sum(M), sum(E)
    if not s_mu <= V <= s_eta:
        raise NotBalanced(L, V, s_mu, s_eta)
    return _mix(v, mu, eta, value_id, route, scaled)


def lbc_value(
    v: TUGame,
    mu_id: Union[str, BoundFunctional],
    *,
    value_id: str | None = None,
) -> ValueResult:
    """The compromise value built from a regular lower bound.

    Pairs mu with eta^mu, which gives gamma_i = mu_i + (v(N) - sum(mu)) / n,
    and refuses a game outside B_l, sum(mu) > v(N), as mu_1 > eta^mu_1.
    Regularity is taken from the functional's is_regular_lower flag.
    """
    fn = functional(mu_id)
    if fn.is_regular_lower is not True:
        raise NotRegularLowerBound(f"{fn.id} is not flagged as a regular lower bound")
    mu = fn._scaled(v)
    eta = bounds._eta_from(v, mu)
    return compromise(v, mu, eta, value_id=value_id or f"lbc:{fn.id}")


def ubc_value(
    v: TUGame,
    eta_id: Union[str, BoundFunctional],
    *,
    value_id: str | None = None,
) -> ValueResult:
    """The compromise value built from a translation covariant upper bound.

    Pairs eta with mu^eta.  BoundOrderViolated signals some mu^eta_i >
    eta_i, i.e. some v(S) > eta(S); NotBalanced signals sum(mu^eta) > v(N):
    the game lies outside the strong or the proper upper-bound class."""
    fn = functional(eta_id)
    mu, eta = bounds._mu_from_upper(v, fn), fn._scaled(v)
    return compromise(v, mu, eta, value_id=value_id or f"ubc:{fn.id}")


def _bracketed(v: TUGame, key: str, value_id: str | None = None) -> ValueResult:
    """compromise of the pair AXIOM_PAIRS[key] on v, kept in v.memo under key."""
    return v.remember(key, lambda: compromise(
        v, *(functional(fn)._scaled(v) for fn in AXIOM_PAIRS[key]),
        value_id=value_id or key,
    ))


def tau(v: TUGame) -> ValueResult:
    """The compromise of minimal rights m and marginal contributions M,
    defined where m <= M (the semi-balanced games) and sum(m) <= v(N)."""
    return _bracketed(v, "tau")


def chi(v: TUGame) -> ValueResult:
    """The compromise of mu^eta and eta for the Milnor upper bound eta.  On
    every game mu^eta <= eta and mu^eta is the vector of individual worths,
    so chi is defined exactly on the weakly essential games."""
    return _bracketed(v, "chi")


def gately(v: TUGame) -> ValueResult:
    """The compromise of individual worths and marginal contributions.

    Defined on essential games, sum(nu) <= v(N) <= sum(M), with sum(M - nu)
    > 0 or nu = M.  The formula is evaluated even where some nu_i exceeds
    M_i; the bracketed Gately value, which refuses such games, is compromise(v,
    individual_worths(v), marginal_contributions(v), value_id="gately").
    """
    return v.remember("gately", lambda: _gately(v))


def _gately(v: TUGame) -> ValueResult:
    # nu, M and v(N) over the game's own L, so the ints compare directly.
    (L, nu), (_, M) = v._singletons, v._marginals
    vN, s_nu, s_M = v.scaled[1][-1], sum(nu), sum(M)
    if not s_nu <= vN <= s_M:
        raise NotBalanced(L, vN, s_nu, s_M)
    if nu != M and s_M == s_nu:
        raise DegenerateBounds(
            "sum(M - nu) = 0 with nu != M leaves the formula undefined"
        )
    return _mix(v, v._singletons, v._marginals, "gately")


def cis(v: TUGame) -> ValueResult:
    """CIS_i = v_i + (v(N) - sum_j v_j) / n, on games with imputations."""
    return _bracketed(v, "cis")


def pansc(v: TUGame) -> ValueResult:
    """PANSC_i = (M_i / sum_j M_j) * v(N).

    Defined where M >= 0, so that (0, M) is an ordered pair, and v(N) >= 0;
    sum(M) = 0 is accepted only for v(N) = 0.  The proportional formula
    itself is evaluated even when v(N) > sum(M); the reported lam =
    v(N)/sum(M) then exceeds 1 and the result agrees with the bound-pair
    engine exactly on the bracketed subclass.
    """
    return v.remember("pansc", lambda: _pansc(v))


def _pansc(v: TUGame) -> ValueResult:
    # compromise's checks on (0, M), over the game's own L.  After the order
    # check M >= 0, so [0, sum(M)] is a bracket and sum(M) = 0 only for M = 0.
    L, M = v._marginals
    zero = (L, (0,) * v.n)
    i = _first_failure(zero, v._marginals, le)
    if i is not None:
        raise BoundOrderViolated(i, L, 0, M[i])
    vN = v.scaled[1][-1]
    if vN < 0:
        raise NotBalanced(L, vN, 0, sum(M))
    if vN != 0 and not any(M):
        raise DegenerateBounds("sum(M) = 0 cannot pay out v(N) != 0")
    return _mix(v, zero, v._marginals, "pansc")


def egalitarian(v: TUGame) -> ValueResult:
    """The equal split v(N)/n, defined for v(N) >= 0."""
    return _bracketed(v, "egal", "egalitarian")


def eansc(v: TUGame) -> ValueResult:
    """EANSC_i = M_i + (v(N) - sum_j M_j) / n, total on all games.

    Route metadata records which bound-pair reconstructions of EANSC_ROUTES
    cover the game: (mu~, M) when n >= 2 and v(N) <= sum(M), (M, eta^M)
    when v(N) >= sum(M).  At least one always applies, since M_1 = v(N)
    when n = 1.  The result is computed through the first route listed; the
    verification suite rebuilds every listed route and compares.
    """
    return v.remember("eansc", lambda: _eansc(v))


def _eansc(v: TUGame) -> ValueResult:
    routes = [name for name, (_, covers) in EANSC_ROUTES.items() if covers(v)]
    mu_id, eta_id = EANSC_ROUTES[routes[0]][0]
    lower, upper = functional(mu_id)._scaled(v), functional(eta_id)._scaled(v)
    return compromise(v, lower, upper, value_id="eansc", route=" and ".join(routes))


def km(v: TUGame) -> ValueResult:
    """The compromise of the Kikuta lower and Milnor upper bounds.

    Total on all games: the telescoping chain argument puts v(N) between
    the two bound sums for every game.
    """
    return _bracketed(v, "km")


# CLI and verification registries.  AXIOM_PAIRS names each value's (mu, eta)
# pair, the only place that does: _bracketed, the axiom checks (verify._pair),
# the suite's bound-pair rows (verify._POSITIVE_PAIRS) and `bounds --pair`
# (cli.PAIR_MAP) read it.  LBC_FAMILY marks the values whose proportionality
# axiom is egalitarian division rather than eta-proportionality.
VALUES = {
    "tau": tau,
    "chi": chi,
    "gately": gately,
    "cis": cis,
    "pansc": pansc,
    "eansc": eansc,
    "egal": egalitarian,
    "km": km,
}

AXIOM_PAIRS: dict[str, tuple[Union[str, BoundFunctional], Union[str, BoundFunctional]]] = {
    "tau": ("MinimalRights", "MarginalContributions"),
    "chi": (bounds.MU_FROM_MILNOR, "MilnorUpper"),
    "km": ("KikutaLower", "MilnorUpper"),
    "pansc": ("ZeroLower", "MarginalContributions"),
    "gately": ("IndividualWorths", "MarginalContributions"),
    "cis": ("IndividualWorths", "EtaPrime"),
    "egal": ("ZeroLower", "EtaTrivial"),
    "eansc": ("MarginalContributions", "EtaFromM"),
}

# The bound-pair routes of EANSC in the order eansc tries them: each printed
# route name maps to ((mu_id, eta_id), covers), covers(v) saying whether the
# pair reconstructs EANSC on v.  eansc computes through the first covering
# route; the suite rebuilds every covering route and checks each pair on the
# games it covers; `bounds --pair eansc` shows (mu~, M).
EANSC_ROUTES: dict[str, tuple[tuple[str, str], Callable[[TUGame], bool]]] = {
    "(mu~, M)": (("EanscTildeLower", "MarginalContributions"),
                 lambda v: v.n >= 2 and in_class(v, "M-upper")),
    "(M, eta^M)": (AXIOM_PAIRS["eansc"], partial(in_class, name="M-lower")),
}

LBC_FAMILY = frozenset({"cis", "egal", "eansc"})
