"""Exact-arithmetic compromise values for cooperative TU-games.

Games are worth tables over coalition bitmasks, held as ints over their
least common denominator and read as Fractions; every computation in the
package is exact.  The public surface re-exports the
game layer, the bound functionals, the named values, the verification
suite, and the JSON game-file codec.
"""

from .bounds import (
    BoundFunctional,
    BoundPairReport,
    CheckOutcome,
    MembershipReport,
    REGISTRY,
    Witness,
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
    is_regular_lower,
    is_strongly_upper_bounded,
    kikuta_lower,
    marginal_contributions,
    membership,
    milnor_upper,
    minimal_rights,
    mu_from_upper,
    zero_lower,
)
from .errors import (
    BoundOrderViolated,
    CoopvalsError,
    DegenerateBounds,
    DomainError,
    DuplicateCoalition,
    EmptyBaseCoalition,
    InvalidPlayerIndex,
    NonCovariantUpperBound,
    NonPositiveScale,
    NonzeroEmptyCoalition,
    NotBalanced,
    NotInClass,
    NotRegularLowerBound,
    ParseError,
    PlayerCountExceeded,
    PreconditionNotMet,
    SamplerExhausted,
    TooFewPlayers,
    UnknownBoundFunctional,
)
from .game import (
    ClassReport,
    TUGame,
    additive_game,
    base_game,
    build_game,
    classify,
    coalition,
    dual,
    individual_worths,
    members,
    player_cap,
    subtract_allocation,
    transform,
    unanimity_game,
    worth,
    zero_normalise,
)
from .gamefile import game_doc, parse_game_file, serialise_game
from .values import (
    AXIOM_PAIRS,
    LBC_FAMILY,
    VALUES,
    ValueResult,
    chi,
    cis,
    compromise,
    eansc,
    egalitarian,
    gately,
    km,
    lbc_value,
    pansc,
    tau,
    ubc_value,
)
from .verify import (
    AXIOMS,
    CheckStats,
    SamplerConfig,
    SuiteReport,
    check_axiom,
    check_convex_coincidence,
    run_suite,
    run_suite_on_games,
    sample_games,
)

__version__ = "0.1.0"
