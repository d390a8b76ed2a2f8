"""Exact TU-game representation and structural transforms.

A game on n players stores one exact rational worth per coalition, with
v(empty) = 0.  A coalition is an int bit pattern: player i (0-based) is a
member iff bit i of the pattern is set, so the full table has 2**n entries
indexed 0 .. 2**n - 1 and the grand coalition is 2**n - 1.

Worths are fractions.Fraction; there is no floating point here.  Sweeps
over all coalitions run on TUGame.scaled, the table times the least common
denominator L of its worths as ints (exact: they take sums, maxima, minima
and comparisons, which commute with scaling), and divide by L at the end.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import add, ge, sub
from typing import (
    Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Tuple, TypeVar, Union,
)

from .errors import (
    CoopvalsError,
    DuplicateCoalition,
    EmptyBaseCoalition,
    InvalidPlayerIndex,
    NonPositiveScale,
    NonzeroEmptyCoalition,
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
    "coalition_size",
    "coalition_total",
    "additive_table",
    "zeta",
    "halves",
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
T = TypeVar("T")


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
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise CoopvalsError(f"expected a Fraction, int or str, got the float {x!r}")
    return Fraction(x)


def coalition(players: Iterable[int]) -> int:
    """Bit pattern of a set of 0-based player indices."""
    mask = 0
    for i in players:
        if i < 0:
            raise InvalidPlayerIndex(f"negative player index {i}")
        mask |= 1 << i
    return mask


def members(S: int) -> Tuple[int, ...]:
    """0-based player indices of a coalition, ascending."""
    out = []
    i = 0
    while S:
        if S & 1:
            out.append(i)
        S >>= 1
        i += 1
    return tuple(out)


def coalition_size(S: int) -> int:
    return S.bit_count()


def coalition_total(x: Sequence[Fraction], S: int) -> Fraction:
    """x(S) = sum of x_i over members i of S."""
    return sum((x[i] for i in members(S)), Fraction(0))


def additive_table(x: Sequence) -> list:
    """[x(S) for every coalition S], doubling the table once per player."""
    table = [0]
    for x_i in x:
        table += [t + x_i for t in table]
    return table


def zeta(table: list) -> None:
    """In place, replace table[S] by the sum of table[T] over all T within S."""
    size, bit = len(table), 1
    while bit < size:
        for lo in range(bit, size, 2 * bit):
            table[lo:lo + bit] = map(add, table[lo:lo + bit], table[lo - bit:lo])
        bit <<= 1


def halves(table: Sequence, i: int) -> Tuple[Iterator, Iterator]:
    """Iterators over table[S + i] and table[S] for the S avoiding player i,
    in increasing S: the k-th S is the k-th coalition of the other players."""
    bit = 1 << i
    blocks = range(bit, len(table), 2 * bit)
    upper = chain.from_iterable(table[lo:lo + bit] for lo in blocks)
    return upper, chain.from_iterable(table[lo - bit:lo] for lo in blocks)


def _check_coalition(S: int, n: int) -> None:
    if S < 0 or S >> n:
        raise InvalidPlayerIndex(
            f"coalition {bin(S)} mentions players outside 0..{n - 1}"
        )


@dataclass(frozen=True)
class TUGame:
    """A TU-game: player count n and a dense worth table over all coalitions.

    worths[S] is v(S) for the bit-pattern coalition S; worths[0] must be 0.
    Instances are immutable and safe to share across threads.  Besides the
    fields, a game carries caches of what is derived from it: scaled, and
    memo, which holds each bound vector, named value, shifted game and class
    verdict the first time it is computed (see remember and in_class).  Every
    entry is a pure function of the fields, so two threads filling one entry
    at once both compute the same result and either write leaves it correct.
    The caches take no part in ==, hash or pickling.
    """

    n: int
    worths: Tuple[Fraction, ...]
    labels: Tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TooFewPlayers(f"a game needs at least one player, got n={self.n}")
        cap = player_cap()
        if self.n > cap:
            raise PlayerCountExceeded(f"n={self.n} exceeds the player cap {cap}")
        table = tuple(map(as_fraction, self.worths))
        if len(table) != 1 << self.n:
            raise CoopvalsError(
                f"worth table must have {1 << self.n} entries, got {len(table)}"
            )
        if table[0] != 0:
            raise NonzeroEmptyCoalition(f"v(empty) must be 0, got {table[0]}")
        object.__setattr__(self, "worths", table)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.n:
                raise CoopvalsError(
                    f"expected {self.n} player labels, got {len(labels)}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def grand(self) -> int:
        """Bit pattern of the grand coalition N."""
        return (1 << self.n) - 1

    @property
    def total(self) -> Fraction:
        """v(N)."""
        return self.worths[self.grand]

    def worth(self, S: int) -> Fraction:
        _check_coalition(S, self.n)
        return self.worths[S]

    def __getstate__(self) -> dict:
        # Pickle the fields only: memo entries may hold unpicklable lambdas.
        return {k: self.__dict__[k] for k in ("n", "worths", "labels")}

    @cached_property
    def memo(self) -> dict:
        """Results derived from this game, keyed by what derived them: a bound
        functional (by identity), ("shifted", functional), ("mu_from_upper",
        functional), a value name, or ("class", name) for each name of
        CLASSES decided so far.  Keys never come from caller-supplied
        vectors, so the memo is bounded by the functionals, values and
        classes in the program."""
        return {}

    def remember(self, key: Hashable, compute: Callable[[], T]) -> T:
        """memo[key], computed by compute() on first use."""
        memo = self.memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    @cached_property
    def scaled(self) -> Tuple[int, tuple]:
        """(L, L*v): L the least common denominator of the worths, and the
        worths times L as ints.  (1, worths) when L exceeds SCALE_CAP."""
        L = 1
        for w in self.worths:
            if L % w.denominator:
                L = lcm(L, w.denominator)
                if L > SCALE_CAP:
                    return 1, self.worths
        return L, tuple(w.numerator * (L // w.denominator) for w in self.worths)


def scaled_with(v: TUGame, x: Sequence[RationalLike]) -> Tuple[int, Sequence, list]:
    """(L, L*v, L*x) as in TUGame.scaled, for a common denominator L of the
    game and the vector x; (1, worths, x) when L would exceed SCALE_CAP."""
    L, W = v.scaled
    x = list(map(as_fraction, x))
    common = lcm(L, *(c.denominator for c in x))
    if common > SCALE_CAP:
        return 1, v.worths, x
    if common != L:
        W = [w * (common // L) for w in W]
    return common, W, [c.numerator * (common // c.denominator) for c in x]


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
    table = [Fraction(0)] * (1 << n if 1 <= n <= player_cap() else 1)
    # Delegate the n range checks to TUGame, but validate entries here so the
    # duplicate / index errors name the offending coalition.
    seen = set()
    pending = []
    for S, w in items:
        w = as_fraction(w)
        if S in seen:
            raise DuplicateCoalition(f"coalition {bin(S)} given twice")
        seen.add(S)
        if S == 0:
            if w != 0:
                raise NonzeroEmptyCoalition(f"v(empty) must be 0, got {w}")
            continue
        pending.append((S, w))
    probe = TUGame(n, tuple(table))  # validates n and the zero game
    for S, w in pending:
        _check_coalition(S, n)
        table[S] = w
    if not pending and labels is None:
        return probe
    return TUGame(n, tuple(table), None if labels is None else tuple(labels))


def worth(v: TUGame, S: int) -> Fraction:
    """v(S)."""
    return v.worth(S)


def dual(v: TUGame) -> TUGame:
    """The dual game v*(S) = v(N) - v(N minus S)."""
    full = v.grand
    vN = v.total
    table = tuple(vN - v.worths[full ^ S] for S in range(1 << v.n))
    return TUGame(v.n, table, v.labels)


def individual_worths(v: TUGame) -> Allocation:
    """The vector of singleton worths (v_1, ..., v_n)."""
    return tuple(v.worths[1 << i] for i in range(v.n))


def marginal_contributions(v: TUGame) -> Allocation:
    """M_i(v) = v(N) - v(N-i)."""
    full, vN = v.grand, v.total
    return tuple(vN - v.worths[full ^ (1 << i)] for i in range(v.n))


def zero_normalise(v: TUGame) -> TUGame:
    """Subtract each member's singleton worth from every coalition."""
    return subtract_allocation(v, individual_worths(v))


def transform(v: TUGame, scale: RationalLike, shift: Sequence[RationalLike]) -> TUGame:
    """The covariance transform: (scale * v + shift)(S) = scale*v(S) + shift(S)."""
    scale = as_fraction(scale)
    if scale <= 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    x = tuple(map(as_fraction, shift))
    if len(x) != v.n:
        raise CoopvalsError(f"shift must have {v.n} components, got {len(x)}")
    L, W, x = scaled_with(v, x)
    p, q = scale.numerator, scale.denominator
    table = tuple(
        Fraction(p * w + q * t, q * L) for w, t in zip(W, additive_table(x))
    )
    return TUGame(v.n, table, v.labels)


def subtract_allocation(v: TUGame, x: Sequence[RationalLike]) -> TUGame:
    """The shifted game (v - x)(S) = v(S) - x(S)."""
    neg = tuple(-as_fraction(c) for c in x)
    return transform(v, 1, neg)


def base_game(n: int, S: int) -> TUGame:
    """The standard base game b_S: worth 1 on S, 0 elsewhere."""
    if S == 0:
        raise EmptyBaseCoalition("base games need a nonempty coalition")
    _check_coalition(S, n)
    table = [Fraction(0)] * (1 << n)
    table[S] = Fraction(1)
    return TUGame(n, tuple(table))


def additive_game(x: Sequence[RationalLike]) -> TUGame:
    """The additive game v(S) = x(S) for a payoff vector x."""
    payoffs = list(map(as_fraction, x))
    return TUGame(len(payoffs), tuple(additive_table(payoffs)))


def unanimity_game(n: int, T: int) -> TUGame:
    """The unanimity game u_T: worth 1 iff the coalition contains T."""
    if T == 0:
        raise EmptyBaseCoalition("unanimity games need a nonempty carrier")
    _check_coalition(T, n)
    table = tuple(
        Fraction(1) if S & T == T else Fraction(0) for S in range(1 << n)
    )
    return TUGame(n, table)




def excess_table(v: TUGame, eta: Sequence[RationalLike]) -> Tuple[int, list, list]:
    """(L, L*eta, e) with e[S] = L * (v(S) - eta(S)) for every coalition S,
    for a common denominator L of the game and eta as in scaled_with."""
    L, W, E = scaled_with(v, eta)
    return L, E, list(map(sub, W, additive_table(E)))


def _marginal_pass(v: TUGame) -> Tuple[bool, bool]:
    """(monotonic, convex) from one marginal table per player; both are kept.

    Monotonicity checks that no marginal contribution to a nonempty
    coalition is negative, which chains to all nonempty subset pairs.
    Convexity checks that each player's marginal contributions are
    nondecreasing in every other player, in O(n^2 * 2^n).
    """
    n = v.n
    _, W = v.scaled
    monotonic = convex = True
    for i in range(n):
        # Marginal contributions of i to the coalitions of the others, in
        # which player j > i sits at position j - 1.
        marginal = list(map(sub, *halves(W, i)))
        monotonic = monotonic and min(marginal[1:], default=0) >= 0
        convex = convex and all(
            all(map(ge, *halves(marginal, j))) for j in range(i, n - 1)
        )
    v.memo["class", "monotonic"], v.memo["class", "convex"] = monotonic, convex
    return monotonic, convex


def _superadditive(v: TUGame) -> bool:
    # Convex games are superadditive (v(S + T) + v(empty) >= v(S) + v(T) for
    # disjoint S, T), so only the others need the O(3^n) sweep, which visits
    # each split of each coalition into two nonempty parts once.
    if in_class(v, "convex"):
        return True
    _, W = v.scaled
    for U in range(3, v.grand + 1):
        low = U & -U
        rest = S = U ^ low
        # low + S and rest - S split U, for S over the proper subsets of rest.
        while S:
            S = (S - 1) & rest
            if W[low | S] + W[rest ^ S] > W[U]:
                return False
    return True


_CLASS_TESTS: dict[str, Callable[[TUGame], bool]] = {
    "monotonic": lambda v: _marginal_pass(v)[0],
    "superadditive": _superadditive,
    "convex": lambda v: _marginal_pass(v)[1],
    "essential": lambda v: in_class(v, "weakly-essential") and in_class(v, "M-upper"),
    "weakly-essential": lambda v: sum(individual_worths(v)) <= v.total,
    # The empty coalition has excess 0, so it does not move the maximum.
    "semi-balanced": lambda v: max(excess_table(v, marginal_contributions(v))[2]) <= 0,
    "M-lower": lambda v: v.total >= sum(marginal_contributions(v)),
    "M-upper": lambda v: v.total <= sum(marginal_contributions(v)),
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
