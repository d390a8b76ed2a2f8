"""The per-game memo: each bound vector, value and shifted game once per game.

Evaluations are counted by game identity with counting evaluate fields,
swapped in place on the functionals the package holds; the memo keys on
the functional objects, so the swap does not disturb it.
"""

import pickle
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import g_a, games
from coopvals import (
    AXIOMS,
    REGISTRY,
    VALUES,
    BoundFunctional,
    CoopvalsError,
    SamplerConfig,
    TUGame,
    check_axiom,
    check_bound_pair,
    check_translation_covariance,
    classify,
    constant_lower,
    individual_worths,
    is_regular_lower,
    kikuta_lower,
    is_strongly_upper_bounded,
    lbc_value,
    membership,
    milnor_upper,
    run_suite_on_games,
    sample_games,
    subtract_allocation,
    transform,
)
from coopvals import cli, game
from coopvals.bounds import MU_FROM_MILNOR
from coopvals.verify import CLASS_FILTERS

FUNCTIONALS = (*REGISTRY.values(), MU_FROM_MILNOR)


@contextmanager
def counted_evaluations():
    """Counter of (functional id, game id) over every evaluate call made
    through the package's own functionals."""
    calls = Counter()
    seen = []  # keeps each counted game alive, so ids are not reused

    def counting(fn, original):
        def evaluate(v):
            calls[fn.id, id(v)] += 1
            seen.append(v)
            return original(v)

        return evaluate

    originals = [fn.evaluate for fn in FUNCTIONALS]
    for fn, original in zip(FUNCTIONALS, originals):
        object.__setattr__(fn, "evaluate", counting(fn, original))
    try:
        yield calls
    finally:
        for fn, original in zip(FUNCTIONALS, originals):
            object.__setattr__(fn, "evaluate", original)


def _outcome(f, v):
    """f(v), or the type and message of the package error it raises."""
    try:
        return f(v)
    except CoopvalsError as exc:
        return type(exc), str(exc)


def _warm(v):
    for f in (*FUNCTIONALS, *VALUES.values()):
        _outcome(f, v)


def test_a_counting_functional_is_evaluated_once_per_game(g6):
    evaluated = []

    def worths(v):
        evaluated.append(v)
        return individual_worths(v)

    fn = BoundFunctional("CountedWorths", worths, True, True)
    first = lbc_value(g6, fn)
    assert lbc_value(g6, fn) == first
    assert check_bound_pair(g6, fn, "EtaPrime").passed
    assert is_regular_lower(g6, fn).passed
    assert check_translation_covariance(fn, g6, (1, -2, 3)).passed
    membership(g6, fn, "EtaPrime")

    shifted = fn.shifted(g6)
    assert shifted is fn.shifted(g6)
    assert shifted == subtract_allocation(g6, individual_worths(g6))
    assert sum(v is g6 for v in evaluated) == 1
    assert sum(v is shifted for v in evaluated) == 1
    assert len(evaluated) == 3  # g6, its shift, and the covariance probe


def test_functionals_with_one_name_keep_their_own_entries(g6):
    one, two = constant_lower(1, id="Floor"), constant_lower(2, id="Floor")
    assert one(g6) == (1, 1, 1)
    assert two(g6) == (2, 2, 2)
    assert one.shifted(g6) != two.shifted(g6)


def test_a_zero_lower_bound_shifts_to_the_game_itself(g6):
    assert REGISTRY["ZeroLower"].shifted(g6) is g6
    assert ("shifted", REGISTRY["ZeroLower"]) not in g6.memo


def test_values_and_their_axiom_checks_evaluate_each_functional_once():
    batch = [g_a(A) for A in (2, 4, 6, 8)]
    batch += sample_games(SamplerConfig(n_min=4, n_max=4, count=3, seed=5))
    with counted_evaluations() as calls:
        for v in batch:
            for vid, f in VALUES.items():
                _outcome(f, v)
                for axiom_id in AXIOMS:
                    _outcome(lambda game: check_axiom(axiom_id, vid, game), v)
    assert calls
    assert max(calls.values()) == 1


def test_swapping_evaluate_in_place_keeps_the_memo(g6):
    _warm(g6)
    with counted_evaluations() as calls:
        _warm(g6)
    assert not calls


def test_the_suite_evaluates_each_functional_once_per_game():
    config = SamplerConfig(n_min=4, n_max=4, count=6, seed=11)
    convex = sample_games(SamplerConfig(
        n_min=4, n_max=4, count=2, seed=12, class_filter="convex"
    ))
    with counted_evaluations() as calls:
        warm = run_suite_on_games(sample_games(config), seed=3, convex_games=convex)
    assert max(calls.values()) == 1
    # Warm games give the same report as cold ones.
    cold = run_suite_on_games(
        [TUGame(v.n, v.worths) for v in sample_games(config)],
        seed=3,
        convex_games=[TUGame(v.n, v.worths) for v in convex],
    )
    assert warm.to_dict() == cold.to_dict()


@settings(max_examples=40, deadline=None)
@given(games(n_min=1, n_max=4))
def test_a_warm_game_gives_what_a_fresh_game_gives(v):
    run_suite_on_games([v], negative_fixtures=False)
    _warm(v)
    assert v.memo
    fresh = TUGame(v.n, v.worths)
    for f in (*FUNCTIONALS, *VALUES.values()):
        assert _outcome(f, v) == _outcome(f, fresh)
    for fn in FUNCTIONALS:
        assert _outcome(fn.shifted, v) == _outcome(fn.shifted, fresh)


def test_the_memo_takes_no_part_in_equality_hash_or_pickling(g6):
    cold = TUGame(g6.n, g6.worths)
    before = hash(g6)
    _warm(g6)
    assert len(g6.memo) > len(VALUES)
    assert hash(g6) == before == hash(cold)
    assert g6 == cold and cold == g6
    # The memo holds functionals whose evaluate is a lambda, which would not
    # pickle; a pickled game carries its fields only.
    restored = pickle.loads(pickle.dumps(g6))
    assert restored == g6
    assert "memo" not in vars(restored)
    assert VALUES["chi"](restored) == VALUES["chi"](g6)


def test_distinct_vectors_do_not_grow_the_memo(g6):
    _warm(g6)
    size = len(g6.memo)
    for k in range(100):
        x = (Fraction(k), Fraction(-k, 3), Fraction(k, 7))
        subtract_allocation(g6, x)
        transform(g6, 2, x)
        is_strongly_upper_bounded(g6, x)
        check_translation_covariance("KikutaLower", g6, x)
    assert len(g6.memo) == size


def test_threads_filling_one_memo_agree():
    v = sample_games(SamplerConfig(n_min=5, n_max=5, count=1, seed=8))[0]
    expected = {vid: _outcome(f, TUGame(v.n, v.worths)) for vid, f in VALUES.items()}
    results = []

    def work():
        results.append({vid: _outcome(f, v) for vid, f in VALUES.items()})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)


def test_only_classify_decides_superadditivity():
    # v(S) = 1 iff |S| >= 4: superadditive but not convex, so deciding
    # superadditivity takes the O(3^n) sweep.
    v = TUGame(6, tuple(Fraction(int(S.bit_count() >= 4)) for S in range(1 << 6)))
    key = ("class", "superadditive")
    run_suite_on_games([v], negative_fixtures=False)
    assert v.memo[("class", "convex")] is False
    assert key not in v.memo
    for class_filter in CLASS_FILTERS:
        config = SamplerConfig(n_min=4, n_max=4, class_filter=class_filter, count=3)
        sampled = sample_games(config)
        run_suite_on_games(sampled)
        assert not any(key in u.memo for u in sampled)
    assert classify(v).superadditive
    assert v.memo[key] is True


def test_kikuta_and_milnor_come_from_one_marginal_sweep(monkeypatch):
    # Each sweep lists every player's marginal contributions once, over the
    # slices that pair the worth table for that player.
    v = sample_games(SamplerConfig(n_min=5, n_max=5, count=1, seed=4))[0]
    sliced = []
    original = game._slices

    def counting(size, i):
        sliced.append((size, i))
        return original(size, i)

    monkeypatch.setattr(game, "_slices", counting)
    one_pass = [(1 << v.n, i) for i in range(v.n)]
    fresh = TUGame(v.n, v.worths)
    low, high = kikuta_lower(fresh), milnor_upper(fresh)
    assert sliced == one_pass
    assert REGISTRY["KikutaLower"](fresh) == low
    assert REGISTRY["MilnorUpper"](fresh) == high
    assert VALUES["km"](fresh).lower_used == low
    assert sliced == one_pass
    assert (low, high) == (kikuta_lower(v), milnor_upper(v))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv, tables",
    [
        ("dense8", ["report", "--format", "json"], 2),
        ("majority5", ["report", "--format", "json"], 2),
        ("dense8", ["bounds", "--pair", "tau"], 2),
        ("dense8", ["bounds", "--pair", "chi"], 2),
    ],
)
def test_each_excess_table_is_built_once(name, argv, tables, monkeypatch, capsys):
    # Semi-balancedness, mu^M, mu^Milnor and b_hat each need one table over
    # all 2^n coalitions; strong upper-boundedness is read off mu^eta <= eta.
    # mu^M and mu^Milnor share one when M = Milnor, as on the convex dense8.
    built = []
    original = game.excess_table

    def counting(v, eta):
        built.append(eta)
        return original(v, eta)

    monkeypatch.setattr(game, "excess_table", counting)
    path = str(GOLDEN / f"{name}_game.json")
    assert cli.main([*argv[:1], "--game", path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(built) == tables
