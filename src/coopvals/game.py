"""Exact TU-game representation and structural transforms.

A game on n players stores one exact rational worth per coalition, with
v(empty) = 0.  A coalition is an int bit pattern: player i (0-based) is a
member iff bit i of the pattern is set, so the full table has 2**n entries
indexed 0 .. 2**n - 1 and the grand coalition is 2**n - 1.

The state of a game is the pair (L, W) of TUGame.scaled: L is the least
common denominator of the worths and W[S] = L * v(S) as ints.  Sweeps over
all coalitions run on W (exact: they take sums, maxima, minima and
comparisons, which commute with scaling) and divide by L at the end.  The
games derived from a game (transform, subtract_allocation, dual,
zero_normalise) are linear maps of W and are built as (L', W') with
TUGame.from_scaled, with no Fraction per coalition.  _denominator is the
one step that finds a common denominator, for _scale and for the game
file reader; when L would exceed SCALE_CAP, _scale gives (1, the worths
as Fractions) instead, and the same code runs on the Fractions.
TUGame.worths, the Fraction table, is a view built on first use.  There
is no floating point here.

Every per-player pass over a table (zeta, the marginal sweeps, the
dividend certificate of convexity, mu^x) splits it into its pairs (S + i,
S) with the slice pairs of _slices, the one statement of that geometry;
_above says where the players sit in a marginal list that joins those
slices.

Vectors are scaled the same way.  A scaled vector is a pair (L, X) of a
positive int L and a tuple X with X[i] = L * x_i, as ints, or (1, the
Fractions) past SCALE_CAP; a scalar is a pair with a 1-tuple.  The sweeps
give their vectors as pairs (the singleton and marginal vectors, v(N),
Kikuta and Milnor, mu^x), _total, _affine and _share add, shift and
spread pairs into pairs, and _common brings the pairs of one formula to
the lcm of their L.  Comparisons (_first_failure, _at_most) take X_i * J
against Y_i * K for (K, X) and (J, Y), so a Fraction is built only where a
caller asks for one (_fractions): a public bound vector, or a field of a
value's result or of a witness, which _Views builds from its pair on first
read.  Output needs none: _spelled writes the components of any number
of pairs as str(Fraction) does, from the ints and one gcd each, in one set
of maps, for a whole document's numbers and for game files.
_scaled_vector takes a vector of rationals to its pair, and _reduced brings
a pair to its least denominator; _vector, the one entry for a vector from a
caller or a bound functional, also refuses any length but the game's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, count, islice, repeat
from math import gcd, lcm
from operator import add, eq, floordiv, ge, le, mul, sub
from typing import (
    Callable, Hashable, Iterable, Mapping, Sequence, Tuple, TypeVar, Union,
)

from .errors import (
    CoopvalsError,
    DuplicateCoalition,
    EmptyBaseCoalition,
    InvalidPlayerIndex,
    NonPositiveScale,
    NonzeroEmptyCoalition,
    ParseError,
    PlayerCountExceeded,
    TooFewPlayers,
)

__all__ = [
    "DEFAULT_PLAYER_CAP",
    "SCALE_CAP",
    "RationalLike",
    "Allocation",
    "TUGame",
    "ClassReport",
    "CLASSES",
    "player_cap",
    "as_fraction",
    "coalition",
    "members",
    "coalition_total",
    "additive_table",
    "zeta",
    "scaled_with",
    "excess_table",
    "build_game",
    "worth",
    "dual",
    "individual_worths",
    "marginal_contributions",
    "zero_normalise",
    "transform",
    "subtract_allocation",
    "base_game",
    "additive_game",
    "unanimity_game",
    "classify",
    "in_class",
]

DEFAULT_PLAYER_CAP = 20

# Largest L a table is scaled by.  With coprime denominators L grows with the
# table; past this (a few machine words per entry) sweeps keep the Fractions.
SCALE_CAP = 1 << 256

# Inputs accepted wherever a rational number is expected.
RationalLike = Union[Fraction, int, str]
Allocation = Tuple[Fraction, ...]
# A scaled vector (L, X): x_i = X[i] / L.
_Scaled = Tuple[int, tuple]
T = TypeVar("T")
_MISSING = object()

_NOT_A_PATTERN = "a coalition is an int bit pattern"


def player_cap() -> int:
    """Player cap: COOPVALS_MAX_PLAYERS if set, else 20."""
    raw = os.environ.get("COOPVALS_MAX_PLAYERS")
    if raw is None:
        return DEFAULT_PLAYER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CoopvalsError(
            f"COOPVALS_MAX_PLAYERS must be a positive integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise CoopvalsError(
            f"COOPVALS_MAX_PLAYERS must be a positive integer, got {raw!r}"
        )
    return cap


def as_fraction(x: RationalLike) -> Fraction:
    """x as a Fraction, without rebuilding one that already is.

    Binary floats are refused: Fraction(0.1) is the float's dyadic expansion,
    not 1/10, so a float would silently change the game or vector it is in.
    So is anything else that is not a rational number or text (None, a list,
    a complex, an infinite Decimal); the CoopvalsError names its type.  Text
    that is not a rational literal ("abc", "1/0") raises ParseError.
    """
    if type(x) is Fraction:
        return x
    if not isinstance(x, float):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{str(x)[:40]!r} is not a rational literal") from None
        except (TypeError, OverflowError):
            pass
    raise CoopvalsError(
        f"expected a Fraction, int or str, got the {type(x).__name__} {str(x)[:40]}"
    )


def _ratio(x: RationalLike) -> Tuple[int, int]:
    """x as the int pair (p, q) of as_integer_ratio: an int or a Fraction
    directly, anything else through as_fraction and its refusals."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = as_fraction(x)
    return x.numerator, x.denominator


def _check_int(x, what: str) -> None:
    if not isinstance(x, int):
        raise InvalidPlayerIndex(f"{what}, got the {type(x).__name__} {x!r:.40}")


def coalition(players: Iterable[int]) -> int:
    """Bit pattern of a set of 0-based player indices."""
    mask = 0
    for i in players:
        _check_int(i, "a player index is an int")
        if i < 0:
            raise InvalidPlayerIndex(f"negative player index {i}")
        mask |= 1 << i
    return mask


def members(S: int) -> Tuple[int, ...]:
    """0-based player indices of a coalition, ascending."""
    _check_int(S, _NOT_A_PATTERN)
    if S < 0:
        raise InvalidPlayerIndex(f"negative coalition {S}")
    out = []
    i = 0
    while S:
        if S & 1:
            out.append(i)
        S >>= 1
        i += 1
    return tuple(out)


def coalition_total(x: Sequence[Fraction], S: int) -> Fraction:
    """x(S) = sum of x_i over members i of S."""
    return sum((x[i] for i in members(S)), Fraction(0))


def additive_table(x: Sequence) -> list:
    """[x(S) for every coalition S], doubling the table once per player."""
    table = [0]
    for x_i in x:
        table += [t + x_i for t in table]
    return table


@cache
def _slices(size: int, i: int) -> Tuple[Tuple[slice, slice], ...]:
    """Pairs (up, down) for player i in a table of size = 2**n: table[up] and
    table[down] list table[S + i] and table[S] for the S avoiding i, pair by
    pair.  The S come in blocks of 2**i: one strided slice per offset in a
    block up to sqrt(size), one slice per block above, so about sqrt(size)
    at most."""
    bit, step = 1 << i, 2 << i
    if bit * bit <= size:
        return tuple(
            (slice(bit + k, None, step), slice(k, None, step)) for k in range(bit)
        )
    return tuple(
        (slice(lo, lo + bit), slice(lo - bit, lo)) for lo in range(bit, size, step)
    )


def zeta(table: list) -> None:
    """In place, replace table[S] by the sum of table[T] over all T within S:
    per player i, add table[S] to table[S + i] for the S avoiding i."""
    for i in range(len(table).bit_length() - 1):
        for up, down in _slices(len(table), i):
            table[up] = map(add, table[up], table[down])


def _check_coalition(S: int, n: int) -> None:
    _check_int(S, _NOT_A_PATTERN)
    if S < 0 or S >> n:
        raise InvalidPlayerIndex(
            f"coalition {bin(S)} mentions players outside 0..{n - 1}"
        )


def _check_players(n: int) -> None:
    if not isinstance(n, int):
        raise CoopvalsError(
            f"the player count must be an int, got the {type(n).__name__} {n!r:.40}"
        )
    if n < 1:
        raise TooFewPlayers(f"a game needs at least one player, got n={n}")
    cap = player_cap()
    if n > cap:
        raise PlayerCountExceeded(f"n={n} exceeds the player cap {cap}")


def _check_table(n: int, L: int, W: tuple) -> None:
    if len(W) != 1 << n:
        raise CoopvalsError(f"worth table must have {1 << n} entries, got {len(W)}")
    if W[0] != 0:
        raise NonzeroEmptyCoalition(f"v(empty) must be 0, got {Fraction(W[0], L)}")


def _denominator(qs: Iterable[int]) -> int | None:
    """The least common multiple of the positive ints qs, or None once it
    would pass SCALE_CAP, so a hostile table never grows it further.  The
    only code that finds a common denominator."""
    L = 1
    for q in set(qs):
        if L % q:
            L = lcm(L, q)
            if L > SCALE_CAP:
                return None
    return L


def _scale(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, list]:
    """(L, [p * (L // q) for each pair]) for int pairs (p, q) with q > 0 and L
    the _denominator of the q; or (1, [Fraction(p, q) for each pair]) past
    SCALE_CAP."""
    L = _denominator(q for _, q in pairs)
    if L is None:
        return 1, [Fraction(p, q) for p, q in pairs]
    return L, [p * (L // q) for p, q in pairs]


def _scaled_vector(x: Union[_Scaled, Sequence[RationalLike]]) -> _Scaled:
    """x as a scaled pair: a pair (L, X) as given, and a sequence of
    rationals over the common denominator of its components, through
    _ratio and _scale.  A pair is told from a vector by its tuple X, which
    no rational is."""
    if type(x) is tuple and len(x) == 2 and type(x[1]) is tuple:
        return x
    L, X = _scale(list(map(_ratio, x)))
    return L, tuple(X)


def _vector(x: Sequence, n: int, what: str = "vector") -> _Scaled:
    """_scaled_vector(x), refused unless it has n components."""
    x = _scaled_vector(x)
    if len(x[1]) != n:
        raise CoopvalsError(f"{what} must have {n} components, got {len(x[1])}")
    return x


def _fractions(x: _Scaled) -> Allocation:
    """The Fractions X[i] / L of a scaled pair."""
    L, X = x
    return tuple(Fraction(c, L) for c in X)


def _spelled(*pairs: _Scaled) -> list:
    """[[str(c) for c in _fractions(x)] for x in pairs], with no Fraction
    when every pair is of ints: each component X[i] of a pair (L, X) over
    its gcd g with L, then "/" and d = L // g unless d = 1, in maps over the
    components of all the pairs at once, with one suffix per distinct d.
    Through _fractions when some L or X holds a Fraction, as past SCALE_CAP."""
    X = list(chain.from_iterable(x for _, x in pairs))
    Ls = {L for L, _ in pairs}
    if {*map(type, Ls), *map(type, X)} - {int}:
        return [[str(c) for c in _fractions(x)] for x in pairs]
    if Ls == {1}:
        texts = list(map(str, X))
    else:
        each = list(chain.from_iterable(repeat(L, len(x)) for L, x in pairs))
        G = list(map(gcd, X, each))
        D = list(map(floordiv, each, G))
        suffix = {d: f"/{d}" for d in set(D)}
        suffix[1] = ""
        texts = list(map(add, map(str, map(floordiv, X, G)), map(suffix.__getitem__, D)))
    ends = list(accumulate(len(x) for _, x in pairs))
    return [texts[start:end] for start, end in zip([0, *ends], ends)]


def _common(*parts: _Scaled) -> Tuple[int, list]:
    """(L, [X * (L // K) for each pair (K, X)]) for L the lcm of the K, each
    part a tuple; (1, the parts as Fractions) past SCALE_CAP.  A part
    already over L is given back as it is, so pairs over one K are only
    unpacked."""
    denominators = {K for K, _ in parts}
    if len(denominators) == 1:
        return parts[0][0], [X for _, X in parts]
    L = _denominator(denominators)
    if L is None:
        return 1, [tuple(Fraction(c, K) for c in X) for K, X in parts]
    out = []
    for K, X in parts:
        if K != L:
            factor = L // K
            X = tuple([c * factor for c in X])
        out.append(X)
    return L, out


def _first_failure(
    x: _Scaled, y: _Scaled, holds: Callable[[int, int], bool] = eq
) -> int | None:
    """The first i where holds(x_i, y_i) fails, or None: X_i * J against
    Y_i * K for x = (K, X) and y = (J, Y), or X_i against Y_i when K = J, with
    no common denominator.  Exact on ints and on the Fractions past SCALE_CAP,
    as K, J > 0 and holds (==, <=, >=) is unchanged by positive scaling."""
    (K, X), (J, Y) = x, y
    if K != J:
        X, Y = map(mul, X, repeat(J)), map(mul, Y, repeat(K))
    elif holds is eq and X == Y:
        return None
    verdicts = list(map(holds, X, Y))
    return verdicts.index(False) if False in verdicts else None


def _at_most(x: _Scaled, y: _Scaled) -> bool:
    """x <= y componentwise, for two pairs."""
    return _first_failure(x, y, le) is None


def _total(x: _Scaled) -> _Scaled:
    """sum(x) as the scalar pair (L, (sum(X),))."""
    L, X = x
    return L, (sum(X),)


def _affine(scale: Union[Fraction, int], x: _Scaled, shift: _Scaled) -> _Scaled:
    """scale * x_i + shift_i for each i: with scale = p / q, the ints
    p * X_i + q * Y_i over q * L."""
    p, q = scale.numerator, scale.denominator
    L, (X, Y) = _common(x, shift)
    return q * L, tuple(p * a + q * b for a, b in zip(X, Y))


def _share(x: _Scaled, total: _Scaled, k: int) -> _Scaled:
    """x_i + (total - sum(x)) / k for each i: x plus a k-th of what it
    leaves of total, as the ints k * X_i + rest over k * L."""
    L, (X, (V,)) = _common(x, total)
    rest = V - sum(X)
    return k * L, tuple(k * c + rest for c in X)


def _reduced(x: _Scaled) -> _Scaled:
    """x over its least denominator: L and X divided by gcd(L, *X), so two
    pairs of one vector are one pair.  Past SCALE_CAP, where X holds
    Fractions, that is (1, the Fractions of x)."""
    L, X = x
    if L == 1:
        return x
    try:
        g = gcd(L, *X)
    except TypeError:  # Fractions, past SCALE_CAP
        return 1, _fractions(x)
    return x if g == 1 else (L // g, tuple(c // g for c in X))


class _Views:
    """Fields of a frozen dataclass built on first read, and then kept.

    _PAIRS maps the name of a vector field to the name of the scaled pair it
    is a view of, and _VIEWS any other such field to its builder, a function
    of the instance.  An instance made by _of holds the private state these
    read in place of those fields, and the first read of one builds it: the
    Fractions of its pair, by _fractions, or what the builder gives.  The
    dataclass constructor, and so dataclasses.replace, keeps the fields as
    given and stores each pair too, over 1: (1, the field).  So every
    instance holds its pairs.  ==, hash, repr and pickling read the fields.
    A view is a pure function of the state, so two threads that build one
    field at once leave it correct.
    """

    _PAIRS: dict = {}
    _VIEWS: dict = {}

    @classmethod
    def _of(cls, **state):
        obj = cls.__new__(cls)
        obj.__dict__.update(state)
        return obj

    def __post_init__(self) -> None:
        for name, pair in self._PAIRS.items():
            self.__dict__[pair] = (1, tuple(self.__dict__[name]))

    def __getattr__(self, name: str):
        # Called only for a name not set on the instance or its class.
        if name in self._PAIRS:
            value = _fractions(self.__dict__[self._PAIRS[name]])
        elif name in self._VIEWS:
            value = self._VIEWS[name](self)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.__dict__[name] = value
        return value


@dataclass(frozen=True, init=False)
class TUGame:
    """A TU-game: player count n and a dense worth table over all coalitions.

    TUGame(n, worths, labels) takes worths[S] = v(S) for every bit-pattern
    coalition S, with worths[0] = 0.  The state is scaled = (L, W): L the
    least common denominator of the worths and W[S] = L * v(S) as ints, or
    (1, the worths as Fractions) when L would exceed SCALE_CAP.
    TUGame.from_scaled(n, L, W, labels) builds a game from such a pair with
    no Fraction per coalition.  ==, hash and pickling work on (n, scaled),
    which is reduced, so equal games compare equal however they were built.

    The constructor takes int worths and Fractions straight to their int
    pairs, with no Fraction per coalition; other inputs go through
    as_fraction.

    Instances are immutable and safe to share across threads.  Besides the
    state, a game carries caches of what is derived from it: worths, the
    Fraction table, a view of scaled built on first use; total, v(N); the
    scaled pairs of v(N), the singleton worths and the marginal vector;
    and memo, which holds each bound vector, named value, shifted game and
    class verdict the first time it is computed (see remember and
    in_class).  Every entry is a pure
    function of the state, so two threads filling one entry at once both
    compute the same result and either write leaves it correct.  The caches
    take no part in ==, hash or pickling.
    """

    n: int
    scaled: Tuple[int, tuple]
    labels: Tuple[str, ...] | None = field(default=None, compare=False)

    def __init__(
        self,
        n: int,
        worths: Iterable[RationalLike],
        labels: Sequence[str] | None = None,
    ) -> None:
        _check_players(n)
        L, W = _scale(list(map(_ratio, worths)))
        W = tuple(W)
        _check_table(n, L, W)
        self._set(n, (L, W), labels)

    @classmethod
    def from_scaled(
        cls,
        n: int,
        L: int,
        W: Iterable[int],
        labels: Sequence[str] | None = None,
    ) -> TUGame:
        """The game with v(S) = W[S] / L, for a positive int L and one int
        W[S] per coalition; or for a pair as scaled gives it past SCALE_CAP,
        L = 1 and the worths as Fractions.

        (L, W) is divided by gcd(L, *W), so the stored L is the least common
        denominator.  Checks n, the table length and W[0] = 0 as the
        constructor does, and keeps Fractions past SCALE_CAP as it does.
        """
        _check_players(n)
        if type(L) is not int or L < 1:
            raise CoopvalsError(f"L must be a positive int, got {L!r}")
        W = tuple(W)
        _check_table(n, L, W)
        try:
            g = gcd(L, *W)
        except TypeError:  # not ints: the Fractions kept past SCALE_CAP
            return cls(n, [as_fraction(w) / L for w in W], labels)
        if g != 1:
            L //= g
            W = tuple(w // g for w in W)
        if L > SCALE_CAP:
            return cls(n, [Fraction(w, L) for w in W], labels)
        game = cls.__new__(cls)
        game._set(n, (L, W), labels)
        return game

    def _set(self, n: int, state: Tuple[int, tuple], labels) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scaled", state)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise CoopvalsError(f"expected {n} player labels, got {len(labels)}")
        object.__setattr__(self, "labels", labels)

    @property
    def grand(self) -> int:
        """Bit pattern of the grand coalition N."""
        return (1 << self.n) - 1

    @cached_property
    def worths(self) -> Tuple[Fraction, ...]:
        """v(S) for every coalition S, as Fractions: a view of scaled."""
        L, W = self.scaled
        return tuple(Fraction(w, L) for w in W)

    @cached_property
    def total(self) -> Fraction:
        """v(N)."""
        return self.worth(self.grand)

    @cached_property
    def _scaled_total(self) -> _Scaled:
        L, W = self.scaled
        return L, (W[-1],)

    @cached_property
    def _singletons(self) -> _Scaled:
        L, W = self.scaled
        return L, tuple(W[1 << i] for i in range(self.n))

    @cached_property
    def _marginals(self) -> _Scaled:
        L, W = self.scaled
        top, full = W[-1], self.grand
        return L, tuple(top - W[full ^ (1 << i)] for i in range(self.n))

    def worth(self, S: int) -> Fraction:
        _check_coalition(S, self.n)
        L, W = self.scaled
        return Fraction(W[S], L)

    def __getstate__(self) -> dict:
        # Pickle the state only: memo entries may hold unpicklable lambdas.
        return {k: self.__dict__[k] for k in ("n", "scaled", "labels")}

    @cached_property
    def memo(self) -> dict:
        """Results derived from this game, keyed by what derived them: a bound
        functional (by identity) for its scaled pair, ("shifted", x) for
        the game v - x and ("mu_from_upper", eta) for mu^eta, where x is
        the reduced pair of a vector and eta the pair of an upper bound
        that some functional gave on this game, "extreme marginals" for the
        Kikuta and Milnor pairs of one marginal sweep (_extreme_marginals,
        or the pass that decides monotonic and convex), a value name, or
        ("class", name) for each name of CLASSES decided so far.  Keys never
        come from caller-supplied vectors, so the memo is bounded by the
        functionals, values and classes in the program."""
        return {}

    def remember(self, key: Hashable, compute: Callable[[], T]) -> T:
        """memo[key], computed by compute() on first use."""
        value = self.memo.get(key, _MISSING)
        if value is _MISSING:
            value = self.memo[key] = compute()
        return value


def _from_pairs(n: int, pairs: Sequence[Tuple[int, int]], labels=None) -> TUGame:
    """The game with v(S) = p / q for the int pair (p, q), q > 0, at index S
    of pairs, built over the common denominator of the q (with Fractions
    past SCALE_CAP)."""
    return TUGame.from_scaled(n, *_scale(pairs), labels)


def scaled_with(
    v: TUGame, x: Union[_Scaled, Sequence[RationalLike]]
) -> Tuple[int, Sequence, Sequence]:
    """(L, L*v, L*x) as in TUGame.scaled, for L the common denominator of the
    game and the n-vector x, given as rationals or as a scaled pair; (1, v,
    x) as Fractions when L would exceed SCALE_CAP."""
    L, W = v.scaled
    x = _vector(x, v.n)
    # A game held as Fractions has L = 1, so its table only meets the factor.
    common, ((factor,), X) = _common((L, (1,)), x)
    if factor != 1:
        W = [w * factor for w in W]
    return common, W, X


@dataclass(frozen=True)
class ClassReport:
    """Structural class membership flags of a single game, one per name of
    CLASSES and in its order.

    M_lower_class means v(N) >= sum of marginal contributions; M_upper_class
    is the reverse inequality.  All quantified predicates run over nonempty
    coalitions only; the empty coalition is vacuous under v(empty) = 0.
    """

    monotonic: bool
    superadditive: bool
    convex: bool
    essential: bool
    weakly_essential: bool
    semi_balanced: bool
    M_lower_class: bool
    M_upper_class: bool


# The class names, in ClassReport field order, as the sampler filters and
# NotInClass spell them.
CLASSES = (
    "monotonic", "superadditive", "convex", "essential", "weakly-essential",
    "semi-balanced", "M-lower", "M-upper",
)


def build_game(
    n: int,
    entries: Union[Mapping[int, RationalLike], Iterable[Tuple[int, RationalLike]]],
    labels: Sequence[str] | None = None,
) -> TUGame:
    """Build a game from sparse (coalition, worth) entries.

    Unspecified coalitions default to worth 0.  Coalitions are int bit
    patterns over 0-based players.
    """
    if isinstance(entries, Mapping):
        items: Iterable[Tuple[int, RationalLike]] = entries.items()
    else:
        items = entries
    # Validate entries here so the duplicate / index errors name the
    # offending coalition.
    seen = set()
    pending = []
    for S, w in items:
        w = as_fraction(w)
        _check_int(S, _NOT_A_PATTERN)
        if S in seen:
            raise DuplicateCoalition(f"coalition {bin(S)} given twice")
        seen.add(S)
        if S == 0:
            if w != 0:
                raise NonzeroEmptyCoalition(f"v(empty) must be 0, got {w}")
            continue
        pending.append((S, w))
    _check_players(n)
    table = [Fraction(0)] * (1 << n)
    for S, w in pending:
        _check_coalition(S, n)
        table[S] = w
    return TUGame(n, tuple(table), None if labels is None else tuple(labels))


def worth(v: TUGame, S: int) -> Fraction:
    """v(S)."""
    return v.worth(S)


def dual(v: TUGame) -> TUGame:
    """The dual game v*(S) = v(N) - v(N minus S)."""
    # N minus S is grand - S, so W reversed lists W[N minus S] in S order.
    L, W = v.scaled
    top = W[-1]
    return TUGame.from_scaled(v.n, L, [top - w for w in reversed(W)], v.labels)


def individual_worths(v: TUGame) -> Allocation:
    """The vector of singleton worths (v_1, ..., v_n)."""
    return _fractions(v._singletons)


def marginal_contributions(v: TUGame) -> Allocation:
    """M_i(v) = v(N) - v(N-i)."""
    return _fractions(v._marginals)


def zero_normalise(v: TUGame) -> TUGame:
    """Subtract each member's singleton worth from every coalition."""
    return subtract_allocation(v, v._singletons)


def transform(
    v: TUGame, scale: RationalLike, shift: Union[_Scaled, Sequence[RationalLike]]
) -> TUGame:
    """The covariance transform: (scale * v + shift)(S) = scale*v(S) + shift(S)."""
    # With scale = p / q: (p * L*v + q * L*shift) / (q * L).
    p, q = _ratio(scale)
    if p <= 0:
        raise NonPositiveScale(f"scale must be positive, got {Fraction(p, q)}")
    L, W, X = scaled_with(v, shift)
    shifts = additive_table(X)
    if p != 1:
        W = list(map(mul, W, repeat(p)))
    if q != 1:
        shifts = list(map(mul, shifts, repeat(q)))
    return TUGame.from_scaled(v.n, q * L, list(map(add, W, shifts)), v.labels)


def subtract_allocation(v: TUGame, x: Union[_Scaled, Sequence[RationalLike]]) -> TUGame:
    """The shifted game (v - x)(S) = v(S) - x(S)."""
    return TUGame.from_scaled(v.n, *excess_table(v, x), v.labels)


def base_game(n: int, S: int) -> TUGame:
    """The standard base game b_S: worth 1 on S, 0 elsewhere."""
    if S == 0:
        raise EmptyBaseCoalition("base games need a nonempty coalition")
    _check_coalition(S, n)
    table = [0] * (1 << n)
    table[S] = 1
    return TUGame.from_scaled(n, 1, table)


def additive_game(x: Sequence[RationalLike]) -> TUGame:
    """The additive game v(S) = x(S) for a payoff vector x."""
    payoffs = list(map(as_fraction, x))
    return TUGame(len(payoffs), tuple(additive_table(payoffs)))


def unanimity_game(n: int, T: int) -> TUGame:
    """The unanimity game u_T: worth 1 iff the coalition contains T."""
    if T == 0:
        raise EmptyBaseCoalition("unanimity games need a nonempty carrier")
    _check_coalition(T, n)
    return TUGame.from_scaled(n, 1, [int(S & T == T) for S in range(1 << n)])


def excess_table(
    v: TUGame, x: Union[_Scaled, Sequence[RationalLike]]
) -> Tuple[int, list]:
    """(L, e) with e[S] = L * (v(S) - x(S)) for every coalition S, for a
    common denominator L of the game and x as in scaled_with."""
    L, W, X = scaled_with(v, x)
    return L, list(map(sub, W, additive_table(X)))


def _max_excess(v: TUGame, x: _Scaled) -> _Scaled:
    """max of v(S) - x(S) over the nonempty coalitions S, as a scalar pair."""
    L, e = excess_table(v, x)
    return L, (max(islice(e, 1, None)),)


def _derived_lower(v: TUGame, x: _Scaled) -> _Scaled:
    """mu^x: for each player i, x_i plus the max of v(S) - x(S) over the S
    that contain i.

    With e the excess table over its denominator L, mu^x_i = x_i + m_i / L
    for m_i the max of e over the S containing i, which _affine adds to x
    over L (below SCALE_CAP, L is a multiple of x's denominator).
    """
    L, e = excess_table(v, x)
    tops = tuple(max(max(e[up]) for up, _ in _slices(len(e), i)) for i in range(v.n))
    return _affine(1, _scaled_vector(x), (L, tops))


def _mu_from(v: TUGame, eta: _Scaled) -> _Scaled:
    """_derived_lower(v, eta), kept in v.memo under ("mu_from_upper", eta)."""
    return v.remember(("mu_from_upper", eta), lambda: _derived_lower(v, eta))


def _marginal_list(W: Sequence, i: int) -> list:
    """W[S + i] - W[S] for each S avoiding player i, as the runs of the
    slices of _slices joined in order (faster to build than placed in
    increasing S); the per-player loop of both marginal sweeps.  Entry 0
    is S = empty and the last entry is S = N - i; _above says where the
    other players sit in between."""
    marginal = []
    for up, down in _slices(len(W), i):
        marginal += map(sub, W[up], W[down])
    return marginal


def _above(size: int, i: int) -> range:
    """The bits of a position in _marginal_list(W, i), for a table W of size
    = 2**n, that hold the players j > i, in increasing j.  A position is the
    S of its entry less bit i, the players j < i and j > i in two runs of
    bits.  Where _slices gives one slice per block, the players j < i are
    the low bits, as in S; where it gives one strided slice per offset
    within a block, the slices are joined offset by offset, and the players
    j > i are the low bits instead."""
    n = size.bit_length() - 1
    if (1 << i) ** 2 <= size:  # strided, as _slices decides
        return range(n - 1 - i)
    return range(i, n - 1)


def _extreme_marginals(v: TUGame) -> Tuple[_Scaled, _Scaled]:
    """(Kikuta, Milnor) as pairs: per player i, the min and the max of v(S)
    - v(S-i) over the S containing i, both from one marginal list per
    player.  Kept in v.memo, so the two bounds of a game share one sweep;
    _marginal_pass keeps them too, so a game whose monotonic or convex
    class was asked for first needs no sweep here."""

    def sweep() -> Tuple[_Scaled, _Scaled]:
        L, W = v.scaled
        lows, highs = [], []
        for i in range(v.n):
            marginal = _marginal_list(W, i)
            lows.append(min(marginal))
            highs.append(max(marginal))
        return (L, tuple(lows)), (L, tuple(highs))

    return v.remember("extreme marginals", sweep)


def _dividends_nonnegative(W: Sequence) -> bool:
    """Whether every Harsanyi dividend of a coalition of two or more players
    is nonnegative, which makes the game convex: it is then an additive game
    plus a nonnegative sum of unanimity games.  Block by block in the top
    player k: k's marginal list W[T + k] - W[T] over the coalitions T of the
    players below k, Moebius-transformed in place (zeta's step with sub),
    holds the dividends of the T + k, entry 0 that of {k}.  So a game with a
    negative dividend stops at the first block that holds one."""
    for k in range(1, len(W).bit_length() - 1):
        size = 1 << k
        block = list(map(sub, W[size:2 * size], W[:size]))
        for i in range(k):
            for up, down in _slices(size, i):
                block[up] = map(sub, block[up], block[down])
        if min(islice(block, 1, None)) < 0:
            return False
    return True


def _marginal_pass(v: TUGame) -> Tuple[bool, bool]:
    """(monotonic, convex); both are kept, and so are the Kikuta and Milnor
    pairs of _extreme_marginals.

    Convexity is first decided by _dividends_nonnegative, in O(n * 2^n).
    Every game it certifies is convex; a convex game with a negative
    dividend (a bankruptcy game, say) or a game that is not convex falls
    back to the walk below.

    The walk lists each player's marginal contributions once.  Monotonicity
    checks that no marginal contribution to a nonempty coalition is
    negative, which chains to all nonempty subset pairs.  Convexity checks
    that each player's marginal contributions are nondecreasing in every
    other player, in O(n^2 * 2^n).  Player i's list is checked against the
    players j > i; the players j < i were checked against i, which is the
    same condition.  So while every check so far has held, i's list is
    nondecreasing in every other player: its min and max are its first and
    last entries, v({i}) and v(N) - v(N-i), and its least entry over
    nonempty S is at a singleton, at a position 1 << b.  A certified game
    is read the same way with no list: its Kikuta and Milnor pairs are the
    singleton and marginal vectors, and it is monotonic iff v({i, j}) >=
    v({j}) for every two players.
    """
    L, W = v.scaled
    memo = v.memo
    if _dividends_nonnegative(W):
        units = [1 << i for i in range(v.n)]
        monotonic = all(W[a | b] >= W[b] for a in units for b in units if a != b)
        memo["class", "monotonic"], memo["class", "convex"] = monotonic, True
        memo["extreme marginals"] = v._singletons, v._marginals
        return monotonic, True
    lows, highs = [], []
    monotonic = convex = True
    for i in range(v.n):
        marginal = _marginal_list(W, i)
        convex = convex and all(
            all(map(ge, marginal[up], marginal[down]))
            for j in _above(len(W), i)
            for up, down in _slices(len(marginal), j)
        )
        if monotonic:
            singletons = [marginal[1 << b] for b in range(v.n - 1)]
            monotonic = min(singletons if convex else marginal[1:], default=0) >= 0
        lows.append(marginal[0] if convex else min(marginal))
        highs.append(marginal[-1] if convex else max(marginal))
    memo["class", "monotonic"], memo["class", "convex"] = monotonic, convex
    memo["extreme marginals"] = (L, tuple(lows)), (L, tuple(highs))
    return monotonic, convex


def _superadditive(v: TUGame) -> bool:
    # Convex games are superadditive (v(S + T) + v(empty) >= v(S) + v(T) for
    # disjoint S, T), so only the others need the O(3^n) walk over the
    # splits of each coalition.  The pairs go first, where most games that
    # fail do; then only the coalitions that _short_of_need leaves.
    if in_class(v, "convex"):
        return True
    _, W = v.scaled
    pairs = [1 << a | 1 << b for b in range(v.n) for a in range(b)]
    return _splits_hold(W, pairs) and _splits_hold(W, _short_of_need(W))


def _splits_hold(W: Sequence, coalitions: Iterable[int]) -> bool:
    """Whether W[U] >= W[S] + W[U - S] for every split of each U of
    coalitions into two nonempty parts, visiting each split once."""
    for U in coalitions:
        low = U & -U
        rest = S = U ^ low
        # low + S and rest - S split U, for S over the proper subsets of rest.
        while S:
            S = (S - 1) & rest
            if W[low | S] + W[rest ^ S] > W[U]:
                return False
    return True


def _short_of_need(W: Sequence) -> list:
    """The coalitions U of three or more players, in increasing order, with
    W[U] < need[|U|]: need[s] is the max over 1 <= k < s of top[k] +
    top[s - k], for top[k] the largest worth of a coalition of k players.
    A split of U into parts of k and s - k players has worths of at most
    top[k] and top[s - k], so every split of any other U holds."""
    n = len(W).bit_length() - 1
    sizes = additive_table([1] * n)
    top = [W[(1 << k) - 1] for k in range(n + 1)]
    for s, w in zip(sizes, W):
        if w > top[s]:
            top[s] = w
    need = [None] * 3 + [
        max(top[k] + top[s - k] for k in range(1, s // 2 + 1)) for s in range(3, n + 1)
    ]
    return [U for U, s, w in zip(count(), sizes, W) if s > 2 and w < need[s]]


_CLASS_TESTS: dict[str, Callable[[TUGame], bool]] = {
    "monotonic": lambda v: _marginal_pass(v)[0],
    "superadditive": _superadditive,
    "convex": lambda v: _marginal_pass(v)[1],
    "essential": lambda v: in_class(v, "weakly-essential") and in_class(v, "M-upper"),
    "weakly-essential": lambda v: _at_most(_total(v._singletons), v._scaled_total),
    # m <= M: each m_i <= M_i is v(S) <= M(S) for the S that contain i.
    "semi-balanced": lambda v: _at_most(_mu_from(v, v._marginals), v._marginals),
    "M-lower": lambda v: _at_most(_total(v._marginals), v._scaled_total),
    "M-upper": lambda v: _at_most(v._scaled_total, _total(v._marginals)),
}


def in_class(v: TUGame, name: str) -> bool:
    """Whether v is in the class called name, one of CLASSES.

    Each class is decided the first time it is asked for and kept in v.memo
    under ("class", name); deciding monotonic or convex keeps both.
    """
    test = _CLASS_TESTS[name]
    return v.remember(("class", name), lambda: test(v))


def classify(v: TUGame) -> ClassReport:
    """Every class of CLASSES, decided through in_class."""
    return ClassReport(*(in_class(v, name) for name in CLASSES))
