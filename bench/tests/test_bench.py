"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/tests
"""

import json
import random
import statistics
import sys
from collections import Counter
from fractions import Fraction

import pytest

import measure
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def program():
    return run.load_program(run.ROOT)


@pytest.fixture(scope="module")
def oracles():
    return run.load_oracles(run.ROOT)


# ----- percentiles and sample counts ----------------------------------


def test_percentile_interpolates_between_order_statistics():
    sample = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(sample, 0) == 1.0
    assert measure.percentile(sample, 50) == 3.0
    assert measure.percentile(sample, 100) == 5.0
    assert measure.percentile(sample, 90) == pytest.approx(4.6)
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_count_and_supported_percentile():
    # 100 samples put exactly ten beyond p90; 51 put five.
    assert measure.tail_count(100, 90) == 10
    assert measure.tail_count(51, 90) == 5
    assert measure.tail_count(140, 90) == 14
    assert measure.tail_count(21, 50) == 10
    assert measure.highest_supported_percentile(100) == 90
    assert measure.highest_supported_percentile(60) == 80
    assert measure.highest_supported_percentile(21) == 50
    assert measure.highest_supported_percentile(12) is None
    for n in range(1, 300):
        sample = list(range(n))
        for q in measure.CANDIDATE_PERCENTILES:
            value = measure.percentile(sample, q)
            assert measure.tail_count(n, q) == sum(1 for x in sample if x > value)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / median)


def test_speed_scale_maps_reference_time_to_reference_seconds():
    ref = measure.REFERENCE_SECONDS
    assert measure.speed_scale(ref, ref) == 1.0
    assert measure.speed_scale(2 * ref, 2 * ref) == 0.5  # host at half speed
    assert measure.speed_scale(ref, 3 * ref) == 0.5
    assert measure.reference_seconds() > 0


# ----- span arithmetic -------------------------------------------------


def _span(name, parent, op, start, end):
    return [name, name.split(".")[0], parent, op, start, end]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", -1, 0, 0, 100),
        _span("values.tau", 0, 0, 10, 60),
        _span("bounds.evaluate", 1, 0, 20, 40),
        _span("bounds.minimal_rights", 2, 0, 25, 35),
        _span("game.TUGame", 0, 0, 70, 80),
    ]
    own = tracing.self_times(spans)
    assert own == Counter({"cli": 40, "values": 30, "bounds": 20, "game": 10})
    assert sum(own.values()) == 100  # the root span, split without gaps or overlaps
    assert tracing.self_times(spans, scales=[0.5]) == Counter(
        {"cli": 20, "values": 15, "bounds": 10, "game": 5})


def test_busy_time_counts_recursion_once():
    spans = [
        _span("bounds.evaluate", -1, 0, 0, 50),
        _span("bounds.milnor_upper", 0, 0, 5, 45),
        _span("bounds.evaluate", 1, 0, 10, 20),
        _span("bounds.evaluate", -1, 1, 60, 70),
    ]
    busy = tracing.busy_times(spans)
    assert busy["bounds.evaluate"] == 60
    assert busy["bounds.milnor_upper"] == 40
    assert tracing.busy_times(spans, scales=[1.0, 2.0])["bounds.evaluate"] == 70


def test_counts_come_from_the_window_and_times_from_every_op():
    spans = [
        _span("values.tau", -1, 0, 0, 1_000_000),
        _span("values.tau", -1, 1, 0, 3_000_000),
        _span("values.tau", -1, 2, 0, 2_000_000),
        _span("values.tau", -1, 2, 0, 2_000_000),
    ]
    ops = [Counter({"values.fractions": 4}), Counter({"values.fractions": 6}),
           Counter({"values.fractions": 100})]
    metrics = tracing.per_layer_metrics(spans, ops, window=2, overhead_ratio=1.5)
    assert metrics["values.tau.calls"] == 1.0
    assert metrics["values.tau.ms"] == pytest.approx(8 / 3)
    assert metrics["values.fractions"] == 5.0
    assert metrics["bounds.evaluate.repeat_ratio"] == 0.0
    assert metrics["trace.overhead_ratio"] == 1.5
    assert list(metrics) == tracing.per_layer_metric_names()


# ----- reference checks -----------------------------------------------


def _dense_outputs(program, tmp_path, n=5, seed=3):
    worths = workloads.dense_convex_worths(random.Random(seed), n)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"players": n, "worths_by_mask": [str(w) for w in worths]}))
    rc1, report = workloads.run_cli(program["cli"].main, ["report", "--game", str(path), "--format", "json"])
    rc2, pair = workloads.run_cli(
        program["cli"].main, ["bounds", "--game", str(path), "--pair", "tau", "--format", "json"])
    assert (rc1, rc2) == (0, 0)
    return worths, json.loads(report), json.loads(pair)


def test_dense_check_accepts_the_program_and_rejects_a_wrong_allocation(program, oracles, tmp_path):
    n = 5
    worths, report, pair = _dense_outputs(program, tmp_path, n)
    ref = workloads.dense_references(oracles, n, worths)
    assert workloads.check_dense(report, pair, ref) == []

    wrong = json.loads(json.dumps(report))
    alloc = [Fraction(x) for x in wrong["values"]["tau"]["allocation"]]
    alloc[0] += Fraction(1, 7)
    alloc[1] -= Fraction(1, 7)  # still efficient, so only the reference catches it
    wrong["values"]["tau"]["allocation"] = [str(x) for x in alloc]
    assert workloads.check_dense(wrong, pair, ref) == [
        "report: tau allocation differs from reference"]

    wrong_pair = dict(pair, mu=pair["eta"])
    assert "bounds: mu differs from oracle minimal rights" in workloads.check_dense(
        report, wrong_pair, ref)


def test_dense_games_are_convex_and_every_value_is_defined(oracles):
    rng = random.Random(0)
    for n in (3, 4, 6):
        worths = workloads.dense_convex_worths(rng, n)
        table = oracles.game_from_tugame(type("G", (), {"n": n, "worths": worths}))
        assert oracles.is_convex(table)
        assert workloads.is_supermodular(n, worths)


def test_suite_check_rejects_a_failed_positive_check():
    doc = {"ok": True, "game_count": 10, "checks": [
        {"check_id": "axiom:Efficiency:tau", "failed": 0, "expected_negative": False},
        {"check_id": "regular_lower:ConstantOne", "failed": 3, "expected_negative": True},
    ]}
    assert workloads.check_suite(0, json.dumps(doc), 10) == []
    doc["checks"][0]["failed"] = 1
    assert workloads.check_suite(0, json.dumps(doc), 10) == ["axiom:Efficiency:tau: 1 failed"]
    assert workloads.check_suite(1, "", 10) == ["exit code 1"]


def test_supermodularity_check_rejects_a_subadditive_game():
    n = 3
    worths = [Fraction(0)] + [Fraction(1)] * 7  # v(S) = 1 for every nonempty S
    assert not workloads.is_supermodular(n, worths)
    doc = {"players": 2, "worths": {"1": "1/2", "2": "1", "1,2": "5/2"}}
    assert workloads.worths_from_doc(doc) == [0, Fraction(1, 2), 1, Fraction(5, 2)]
    assert workloads.is_supermodular(2, workloads.worths_from_doc(doc))


# ----- the traced run -------------------------------------------------


def _small_ops(program, tmp_path):
    """One small operation of each workload's kind."""
    path = tmp_path / "d.json"
    worths = workloads.dense_convex_worths(random.Random(1), 4)
    path.write_text(json.dumps({"players": 4, "worths_by_mask": [str(w) for w in worths]}))
    cli, gamefile = program["cli"], program["gamefile"]
    outputs = [
        workloads.run_cli(cli.main, ["check", "--sample", "--n", "3", "--count", "3",
                                     "--seed", "5", "--format", "json"]),
        workloads.run_cli(cli.main, ["report", "--game", str(path), "--format", "json"]),
        workloads.run_cli(cli.main, ["bounds", "--game", str(path), "--pair", "chi",
                                     "--format", "json"]),
        workloads.run_cli(cli.main, ["sample", "--filter", "convex", "--n", "4",
                                     "--count", "2", "--seed", "2", "--format", "json"]),
    ]
    for doc in json.loads(outputs[-1][1]):
        text = json.dumps(doc, indent=2) + "\n"
        assert gamefile.serialise_game(gamefile.parse_game_file(text.encode())) == text
    return outputs


def test_wrappers_see_every_call_of_every_traced_function(program, tmp_path):
    originals = {}
    for layer, names in tracing.TARGETS.items():
        for name in names:
            originals[getattr(program[layer], name).__code__] = f"{layer}.{name}"
    originals[program["game"].TUGame.__init__.__code__] = tracing.CONSTRUCT

    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            seen[originals[frame.f_code]] += 1

    tracer = tracing.Tracer()
    tracer.install(program)
    tracer.begin_op(0)
    sys.setprofile(profile)
    try:
        _small_ops(program, tmp_path)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    tracer.end_op(0)

    recorded = Counter(rec[tracing.NAME] for rec in tracer.spans)
    for name in originals.values():
        assert recorded[name] == seen[name], name
    assert recorded[tracing.EVALUATE] > 0


def test_functionals_built_before_and_during_the_run_are_traced(program):
    bounds, values, cli = program["bounds"], program["values"], program["cli"]
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        held = [fn for pair in (*values.AXIOM_PAIRS.values(), *cli.PAIR_MAP.values())
                for fn in pair if isinstance(fn, bounds.BoundFunctional)]
        held += list(bounds.REGISTRY.values())
        held.append(bounds.derived_lower_from_upper("MilnorUpper"))
        assert all(hasattr(fn.evaluate, "__wrapped__") for fn in held)
    finally:
        tracer.uninstall()
    assert not any(hasattr(fn.evaluate, "__wrapped__") for fn in held[:-1])


def test_uninstall_restores_every_binding(program):
    def snapshot():
        state = {"init": program["game"].TUGame.__init__, "new": Fraction.__new__}
        for key, module in program.items():
            for name, value in vars(module).items():
                if name.startswith("__"):
                    continue
                state[key, name] = value
                if isinstance(value, dict):
                    for k, item in value.items():
                        state[key, name, k] = item
                        parts = item if isinstance(item, tuple) else (item,)
                        for j, part in enumerate(parts):
                            state[key, name, k, j] = getattr(part, "evaluate", None)
        return state

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(program)
    hooked = snapshot()
    assert hooked != before
    with tracer.fractions_uncounted():
        assert Fraction.__new__ is before["new"]
    assert snapshot() == hooked
    tracer.uninstall()
    assert snapshot() == before


def test_two_traced_runs_count_the_same(program, tmp_path):
    results = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(program)
        try:
            tracer.begin_op(0)
            outputs = _small_ops(program, tmp_path)
            tracer.end_op(sum(len(out) for _, out in outputs))
        finally:
            tracer.uninstall()
        metrics = tracing.per_layer_metrics(tracer.spans, tracer.op_counts, 1, 1.0)
        results.append({k: v for k, v in metrics.items() if not k.endswith("ms")})
    assert results[0] == results[1]
    assert results[0]["cli.main.calls"] == 4
    assert results[0]["verify.suite.verdict_ratio"] > 0
    assert results[0]["cli.fractions"] >= 0
    assert results[0]["bounds.fractions"] > 0


# ----- the benchmark's declared metrics -------------------------------


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    e2e = run.end_to_end([0.1, 0.2], [0.05], failed=0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(value > 0 for value in e2e.values())
