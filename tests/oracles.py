"""Independent brute-force oracles, written against frozenset coalitions.

These deliberately share no code or representation with the package: a game
here is a plain dict mapping frozensets of 1-based player numbers to
Fractions.  They exist so the tests can cross-check the bitmask
implementation against a second, slower derivation of the same quantities.
"""

import random
from fractions import Fraction
from itertools import chain, combinations


def subsets(players):
    """All subsets of an iterable of players, as frozensets (empty included)."""
    pool = list(players)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(pool, r) for r in range(len(pool) + 1)
        )
    ]


def game_from_tugame(v):
    """Convert a package game into the oracle's dict-of-frozensets form."""
    table = {}
    for mask in range(1 << v.n):
        coalition = frozenset(i + 1 for i in range(v.n) if mask & (1 << i))
        table[coalition] = Fraction(v.worths[mask])
    return table


def players_of(table):
    return sorted(frozenset().union(*table.keys()))


def marginal_vector(table):
    everyone = frozenset(players_of(table))
    total = table[everyone]
    return {i: total - table[everyone - {i}] for i in everyone}


def minimal_rights_vector(table):
    """m_i = max over coalitions containing i of the remainder after paying
    every other member their marginal contribution."""
    everyone = players_of(table)
    marginal = marginal_vector(table)
    rights = {}
    for i in everyone:
        best = None
        for coalition in subsets(everyone):
            if i not in coalition:
                continue
            remainder = table[coalition] - sum(
                marginal[j] for j in coalition if j != i
            )
            if best is None or remainder > best:
                best = remainder
        rights[i] = best
    return rights


def tau_vector(table):
    """Balance minimal rights against marginal contributions, efficiently."""
    everyone = players_of(table)
    m = minimal_rights_vector(table)
    M = marginal_vector(table)
    total = table[frozenset(everyone)]
    low = sum(m.values())
    high = sum(M.values())
    if low == high:
        assert total == low
        return dict(m)
    weight = Fraction(total - low, high - low)
    return {i: m[i] + weight * (M[i] - m[i]) for i in everyone}


def is_convex(table):
    """v(S union T) + v(S intersect T) >= v(S) + v(T) for all S, T."""
    everything = subsets(players_of(table))
    for s in everything:
        for t in everything:
            if table[s | t] + table[s & t] < table[s] + table[t]:
                return False
    return True


def dual_table(table):
    everyone = frozenset(players_of(table))
    total = table[everyone]
    return {s: total - table[everyone - s] for s in subsets(everyone)}


def affine_table(table, scale, shift):
    """scale * v + x: scale times the worth of each coalition, plus the shift
    of each of its members (shift maps 1-based players to Fractions)."""
    return {
        s: scale * worth + sum((shift[p] for p in s), Fraction(0))
        for s, worth in table.items()
    }


def extreme_marginal_vectors(table):
    """(Kikuta, Milnor): the least and the largest marginal contribution
    v(S) - v(S - i) of each player over the coalitions S containing i."""
    everyone = players_of(table)
    kikuta, milnor = {}, {}
    for i in everyone:
        marginals = [
            table[coalition] - table[coalition - {i}]
            for coalition in subsets(everyone)
            if i in coalition
        ]
        kikuta[i], milnor[i] = min(marginals), max(marginals)
    return kikuta, milnor


def mu_from_upper(table, eta):
    """mu^eta_i: the largest remainder v(S) - sum_{j in S - i} eta_j over the
    coalitions S containing i, for an arbitrary vector eta keyed by player."""
    everyone = players_of(table)
    return {
        i: max(
            table[coalition] - sum(eta[j] for j in coalition if j != i)
            for coalition in subsets(everyone)
            if i in coalition
        )
        for i in everyone
    }


def is_strongly_upper_bounded(table, eta):
    """v(S) <= sum_{i in S} eta_i for every nonempty coalition S."""
    return all(
        table[coalition] <= sum(eta[i] for i in coalition)
        for coalition in subsets(players_of(table))
        if coalition
    )


def is_monotonic(table):
    """v(S) <= v(T) for all nonempty S within T."""
    everything = [s for s in subsets(players_of(table)) if s]
    return all(table[s] <= table[t] for s in everything for t in everything if s <= t)


def is_superadditive(table):
    """v(S) + v(T) <= v(S union T) for all disjoint nonempty S, T."""
    everything = [s for s in subsets(players_of(table)) if s]
    return all(
        table[s] + table[t] <= table[s | t]
        for s in everything
        for t in everything
        if not s & t
    )


def is_semi_balanced(table):
    """Strongly upper bounded by the marginal vector."""
    return is_strongly_upper_bounded(table, marginal_vector(table))


def in_b_hat(table):
    """v(S) - sum_{i in S} v({i}) <= (|S| - 1) * (v(N) - sum_i v({i})) for
    every nonempty coalition S."""
    everyone = players_of(table)
    single = {i: table[frozenset({i})] for i in everyone}
    slack = table[frozenset(everyone)] - sum(single.values())
    return all(
        table[s] - sum(single[i] for i in s) <= (len(s) - 1) * slack
        for s in subsets(everyone)
        if s
    )


def compromise_point(lower, upper, total):
    """The point of the segment from lower to upper whose coordinates sum to
    total, for vectors keyed by player; lower itself when the two coincide."""
    if lower == upper:
        return dict(lower)
    low, high = sum(lower.values()), sum(upper.values())
    weight = Fraction(total - low, high - low)
    return {i: lower[i] + weight * (upper[i] - lower[i]) for i in lower}


def km_vector(table):
    """The compromise of the least and the largest marginal contributions."""
    kikuta, milnor = extreme_marginal_vectors(table)
    return compromise_point(kikuta, milnor, table[frozenset(players_of(table))])


def chi_vector(table):
    """The compromise of mu^eta and eta for eta the largest marginal
    contributions; None when the game is not weakly essential, that is when
    the lower vector pays out more than v(N)."""
    total = table[frozenset(players_of(table))]
    _, milnor = extreme_marginal_vectors(table)
    lower = mu_from_upper(table, milnor)
    if sum(lower.values()) > total:
        return None
    return compromise_point(lower, milnor, total)


def eansc_vector(table):
    """Each player's marginal contribution plus an equal share of what the
    marginal vector leaves over (or overshoots) of v(N)."""
    everyone = players_of(table)
    marginal = marginal_vector(table)
    left_over = table[frozenset(everyone)] - sum(marginal.values())
    share = Fraction(left_over, len(everyone))
    return {i: marginal[i] + share for i in everyone}


def convex_sample(seed, count, n_min, n_max, numerator_min, numerator_max,
                  denominator_max):
    """The games of the seeded convex sampler, from the same random.Random
    calls in the same order.  Per game: the player count; then, for each
    nonempty coalition in the order of its bit pattern (player p is bit
    p - 1), a coefficient p/q with p in [0, max(numerator_max, 1)] and q in
    [1, denominator_max]; then, per player, a shift p/q with p in
    [numerator_min, numerator_max].  v(S) sums the coefficients of the
    nonempty T within S and the shifts of the members of S."""
    rng = random.Random(seed)
    high = max(numerator_max, 1)
    games = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        players = range(1, n + 1)
        order = [
            frozenset(p for p in players if mask >> (p - 1) & 1)
            for mask in range(1 << n)
        ]
        coefficient = {
            S: Fraction(rng.randint(0, high), rng.randint(1, denominator_max))
            for S in order[1:]
        }
        shift = {
            p: Fraction(
                rng.randint(numerator_min, numerator_max),
                rng.randint(1, denominator_max),
            )
            for p in players
        }
        games.append({
            S: sum((c for T, c in coefficient.items() if T <= S), Fraction(0))
            + sum((shift[p] for p in S), Fraction(0))
            for S in order
        })
    return games


def any_sample(seed, count, n_min, n_max, numerator_min, numerator_max,
               denominator_max):
    """The games of the seeded unfiltered sampler, from the same random.Random
    calls in the same order.  Per game: the player count; then, for each
    nonempty coalition in the order of its bit pattern (player p is bit
    p - 1), its worth p/q with p in [numerator_min, numerator_max] and q in
    [1, denominator_max].  The empty coalition is worth 0."""
    rng = random.Random(seed)
    games = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        players = range(1, n + 1)
        order = [
            frozenset(p for p in players if mask >> (p - 1) & 1)
            for mask in range(1 << n)
        ]
        game = {order[0]: Fraction(0)}
        for S in order[1:]:
            game[S] = Fraction(
                rng.randint(numerator_min, numerator_max),
                rng.randint(1, denominator_max),
            )
        games.append(game)
    return games


def zero_normalised_table(table):
    """v(S) less the singleton worths of the members of S."""
    return {
        S: w - sum((table[frozenset([p])] for p in S), Fraction(0))
        for S, w in table.items()
    }
