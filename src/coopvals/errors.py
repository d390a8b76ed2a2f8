"""Exception hierarchy for the coopvals package.

Two error families matter to callers.  ParseError covers malformed game
files and rational text that is no number ("abc", "1/0"), and is mapped to
exit code 2 by the command line tool.  DomainError covers violated
mathematical preconditions (bound order, bound-sum brackets, degenerate
denominators, two class tests) and is mapped to exit code 1.
"""

__all__ = [
    "CoopvalsError",
    "ParseError",
    "DomainError",
    "PlayerCountExceeded",
    "TooFewPlayers",
    "InvalidPlayerIndex",
    "DuplicateCoalition",
    "NonzeroEmptyCoalition",
    "EmptyBaseCoalition",
    "NonPositiveScale",
    "UnknownBoundFunctional",
    "NonCovariantUpperBound",
    "NotRegularLowerBound",
    "NotInClass",
    "BoundOrderViolated",
    "NotBalanced",
    "DegenerateBounds",
    "SamplerExhausted",
    "PreconditionNotMet",
]


class CoopvalsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CoopvalsError, ValueError):
    """Malformed game file: bad JSON, bad coalition key, bad rational literal."""


class DomainError(CoopvalsError):
    """A mathematical precondition does not hold for the given input."""


class PlayerCountExceeded(DomainError):
    """More players than the configured cap (COOPVALS_MAX_PLAYERS, default 20)."""


class TooFewPlayers(DomainError):
    """The operation needs more players than the game has."""


class InvalidPlayerIndex(DomainError, ValueError):
    """A coalition mentions a player outside the game's player set."""


class DuplicateCoalition(DomainError, ValueError):
    """The same coalition appears twice in a game description."""


class NonzeroEmptyCoalition(DomainError, ValueError):
    """The empty coalition must have worth 0 exactly."""


class EmptyBaseCoalition(DomainError, ValueError):
    """Base and unanimity games require a nonempty carrier coalition."""


class NonPositiveScale(DomainError, ValueError):
    """Covariance transforms require a strictly positive scale factor."""


class UnknownBoundFunctional(DomainError, KeyError):
    """No bound functional with the given identifier is registered."""


class NonCovariantUpperBound(DomainError):
    """Deriving a lower bound needs a translation covariant upper bound."""


class NotRegularLowerBound(DomainError):
    """The lower bound does not vanish on the shifted game v - mu(v)."""


class NotInClass(DomainError):
    """The game lies outside the class on which the operation is defined;
    raised only by bounds.is_regular_lower and verify.check_convex_coincidence."""

    def __init__(self, class_name: str):
        self.class_name = class_name
        super().__init__(class_name)

    def __str__(self) -> str:
        return f"not applicable: {self.class_name}"


class BoundOrderViolated(DomainError):
    """Some component of the lower bound exceeds the upper bound; raised as
    (i, L, low, high) for low / L > high / L at player i + 1, and spelled
    only if read."""

    def __str__(self) -> str:
        if len(self.args) != 4:  # raised with its text
            return super().__str__()
        from .game import _spelled  # game imports this module

        i, L, low, high = self.args
        [[low, high]] = _spelled((L, (low, high)))
        return f"lower bound exceeds upper bound at player {i + 1}: {low} > {high}"


class NotBalanced(DomainError):
    """v(N) lies outside the bracket between the bound sums; raised as (L,
    total, low, high), v(N) = total / L, and spelled only if read.  An empty
    bracket, low > high (Gately's, where some nu_i > M_i), is not printed:
    the text names each side that fails instead."""

    def __str__(self) -> str:
        if len(self.args) != 4:  # raised with its text
            return super().__str__()
        from .game import _spelled

        [[total, low, high]] = _spelled((self.args[0], self.args[1:]))
        _, V, s_low, s_high = self.args
        if s_low <= s_high:
            return f"v(N) = {total} is outside the bound bracket [{low}, {high}]"
        sides = [f"below the lower bound sum {low}"] if V < s_low else []
        if V > s_high:
            sides.append(f"above the upper bound sum {high}")
        return f"v(N) = {total} is " + " and ".join(sides)


class DegenerateBounds(DomainError):
    """The bound pair collapses in a way the defining formula cannot handle."""


class SamplerExhausted(DomainError, RuntimeError):
    """Rejection sampling hit its retry cap without an in-class game."""


class PreconditionNotMet(DomainError):
    """A checked axiom precondition fails; the check is a skip, not a failure.

    Raised as (what, value_id, cause) when the value refuses the derived
    game ("dual", say) with cause, and spelled only if the text is read."""

    def __str__(self) -> str:
        if len(self.args) != 3:
            return super().__str__()
        return "{} game leaves the class of {}: {}".format(*self.args)
