"""End-to-end CLI behaviour through main(argv)."""

import contextlib
import functools
import io
import json
import os
import pickle
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopvals import (
    VALUES, DomainError, SamplerConfig, TUGame, ValueResult, Witness, classify,
    functional, game_doc, parse_game_file, run_suite, run_suite_on_games,
    sample_games, serialise_game,
)
from coopvals.cli import (
    PAIR_MAP, _approx, _result_docs, _sampler_config, _scientific, build_parser, main,
)
from coopvals.game import _spelled

G6 = {
    "players": 3,
    "worths": {"1": 1, "2": 1, "3": 2, "1,2": 6, "1,3": 6, "2,3": 6, "1,2,3": 8},
}
G8 = {
    "players": 3,
    "worths": {"1": 1, "2": 1, "3": 2, "1,2": 8, "1,3": 6, "2,3": 6, "1,2,3": 8},
}


@pytest.fixture
def game_file(tmp_path):
    def write(doc, name="game.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_compute_cis(game_file, capsys):
    assert main(["compute", "--game", game_file(G8), "--value", "cis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "7/3 7/3 10/3"
    assert lines[1] == "approx: 2.33333 2.33333 3.33333"
    assert "lambda: 1/3" in lines
    assert "lower: 1 1 2" in lines
    assert "upper: 5 5 6" in lines


def test_compute_domain_error_goes_to_stdout(game_file, capsys):
    assert main(["compute", "--game", game_file(G6), "--value", "tau"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "lower bound exceeds upper bound at player 1: 4 > 2\n"
    assert captured.err == ""


def test_compute_km_and_eansc_route(game_file, capsys):
    assert main(["compute", "--game", game_file(G6), "--value", "km"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "27/11 27/11 34/11"
    assert main(["compute", "--game", game_file(G6), "--value", "eansc"]) == 0
    assert "route: (M, eta^M)" in capsys.readouterr().out.splitlines()


def test_compute_json(game_file, capsys):
    assert main(
        ["compute", "--game", game_file(G6), "--value", "chi", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "value": "chi",
        "allocation": ["27/11", "27/11", "34/11"],
        "lambda": "4/11",
        "lower": ["1", "1", "2"],
        "upper": ["5", "5", "5"],
        "route": None,
    }


def test_report_table(game_file, capsys):
    assert main(["report", "--game", game_file(G6)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "players: 3"
    assert lines[1] == "v(N): 8"
    assert lines[2].startswith("classes: monotonic=true, superadditive=true")
    body = "\n".join(lines)
    assert "tau: lower bound exceeds upper bound at player 1: 4 > 2" in body
    assert "gately: v(N) = 8 is outside the bound bracket [4, 6]" in body
    assert (
        "km: 27/11 27/11 34/11 (approx 2.45455 2.45455 3.09091) "
        "lambda=4/11 lower=[1 1 2] upper=[5 5 5]" in body
    )


def test_report_json_schema(game_file, capsys):
    assert main(["report", "--game", game_file(G6), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["players"] == 3
    assert doc["total"] == "8"
    assert doc["classification"]["semi_balanced"] is False
    assert set(doc["values"]) == {
        "tau", "chi", "gately", "cis", "pansc", "eansc", "egal", "km"
    }
    assert doc["values"]["tau"] == {
        "error": "lower bound exceeds upper bound at player 1: 4 > 2"
    }
    assert doc["values"]["cis"]["allocation"] == ["7/3", "7/3", "10/3"]


def test_report_zero_game(game_file, capsys):
    assert main(["report", "--game", game_file({"players": 2, "worths": {}})]) == 0
    out = capsys.readouterr().out
    for vid in ("tau", "chi", "gately", "cis", "pansc", "eansc", "egal", "km"):
        assert f"{vid}: 0 0 " in out


def test_report_additive_game(game_file, capsys):
    doc = {
        "players": 3,
        "worths": {
            "1": 1, "2": 2, "3": 3, "1,2": 3, "1,3": 4, "2,3": 5, "1,2,3": 6
        },
    }
    assert main(["report", "--game", game_file(doc)]) == 0
    out = capsys.readouterr().out
    assert "egal: 2 2 2 " in out
    for vid in ("tau", "chi", "cis", "pansc", "eansc", "km"):
        assert f"{vid}: 1 2 3 " in out


def test_bounds_tables(game_file, capsys):
    assert main(["bounds", "--game", game_file(G6), "--pair", "km"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair: km (KikutaLower, MilnorUpper)"
    assert lines[1].startswith("mu: 1 1 2 ")
    assert lines[2].startswith("eta: 5 5 5 ")
    assert "balanced: true" in lines

    assert main(["bounds", "--game", game_file(G6), "--pair", "cis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("eta: 5 5 6 ")

    assert main(["bounds", "--game", game_file(G6), "--pair", "tau"]) == 0
    out = capsys.readouterr().out
    assert "mu: 4 4 4 " in out
    assert "balanced: false" in out
    assert "strong_upper: false" in out


def test_bounds_json(game_file, capsys):
    assert main(
        ["bounds", "--game", game_file(G6), "--pair", "km", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == ["1", "1", "2"]
    assert doc["eta"] == ["5", "5", "5"]
    assert doc["balanced"] is True
    assert doc["b_tilde"] is False


def test_bounds_domain_error(game_file, capsys):
    one = game_file({"players": 1, "worths": {"1": 3}})
    assert main(["bounds", "--game", one, "--pair", "eansc"]) == 1
    assert capsys.readouterr().out.strip() != ""


def test_check_single_game(game_file, capsys):
    assert main(["check", "--game", game_file(G6)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "ok: true"
    assert lines[-2] == "games: 1"
    assert not any("expected-negative" in line for line in lines)


def test_check_sample_json(capsys):
    code = main(
        ["check", "--sample", "--seed", "42", "--count", "30", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    rows = {c["check_id"]: c for c in doc["checks"]}
    fixture = rows["bound_pair:IndividualWorths,EtaTrivial"]
    assert fixture["expected_negative"] is True
    assert fixture["failed"] >= 1


def test_check_sample_with_one_player(capsys):
    # With one player EtaTrivial is covariant and (IndividualWorths,
    # EtaTrivial) is a bound pair: their negative rows skip such games.
    assert run_suite(SamplerConfig(n_min=1, n_max=1, count=20)).ok
    assert main(["check", "--sample", "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok: true"


def test_check_failing_suite_exit_code(game_file, capsys):
    # sampling 0 games leaves every expected-negative fixture unfalsified,
    # which the suite must report as a pass (vacuous fixtures are ok)
    assert main(["check", "--sample", "--count", "0"]) == 0
    capsys.readouterr()


def test_parse_and_io_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["report", "--game", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert main(["report", "--game", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_domain_error_from_game_file(game_file, capsys):
    over = game_file({"players": 25, "worths": {}})
    assert main(["report", "--game", over]) == 1
    assert "cap" in capsys.readouterr().out


def test_sample_determinism(capsys):
    args = ["sample", "--seed", "9", "--count", "4", "--n", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    games = [parse_game_file(line) for line in first.splitlines()]
    assert len(games) == 4
    assert all(v.n == 3 for v in games)


def test_sample_convex_filter(capsys):
    assert main(
        ["sample", "--seed", "1", "--count", "5", "--filter", "convex",
         "--format", "json"]
    ) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 5
    for doc in docs:
        assert classify(parse_game_file(json.dumps(doc))).convex


@pytest.mark.parametrize(
    "flags",
    [
        ["--count", "0"],  # prints "[]"
        ["--n", "1", "--count", "3"],
        ["--n", "4", "--count", "3", "--filter", "zero-normalised", "--seed", "5"],
        ["--n", "5", "--count", "2", "--filter", "convex", "--seed", "2"],
        ["--n", "3", "--count", "4", "--filter", "M-upper", "--seed", "1"],
    ],
)
def test_sample_json_is_json_dumps_indent_2(flags, capsys):
    assert main(["sample", *flags, "--format", "json"]) == 0
    args = build_parser().parse_args(["sample", *flags])
    games = sample_games(_sampler_config(args))
    expected = json.dumps([game_doc(v) for v in games], indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_argparse_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", "--value", "tau"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["compute", "--game", "x.json", "--value", "shapley"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
    capsys.readouterr()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", ["0", "42"])
def test_check_sample_matches_golden(seed, capsys):
    assert main(["check", "--sample", "--seed", seed, "--format", "json"]) == 0
    expected = (GOLDEN / f"check_sample_seed{seed}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


DENSE8 = str(GOLDEN / "dense8_game.json")
# v(S) = 1 iff |S| >= 3: monotonic and superadditive, not convex.
MAJORITY5 = str(GOLDEN / "majority5_game.json")
FERMAT3 = str(GOLDEN / "fermat3_game.json")
MIXED6 = str(GOLDEN / "mixed6_game.json")
REJECTION_FILTERS = (
    "zero-normalised", "essential", "weakly-essential", "semi-balanced", "M-lower",
    "M-upper",
)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ["sample", "--filter", "convex", "--n", "10", "--count", "2",
             "--seed", "0", "--format", "json"],
            "sample_convex_n10_seed0.json",
        ),
        (["report", "--game", DENSE8, "--format", "json"], "dense8_report.json"),
        (
            ["bounds", "--game", DENSE8, "--pair", "tau", "--format", "json"],
            "dense8_bounds_tau.json",
        ),
        *(
            (
                ["sample", "--filter", f, "--n", "4", "--count", "3", "--seed", "0",
                 "--format", "json"],
                f"sample_{f}_n4_seed0.json",
            )
            for f in REJECTION_FILTERS
        ),
        (["report", "--game", MAJORITY5, "--format", "json"], "majority5_report.json"),
        (["check", "--game", MAJORITY5, "--format", "json"], "majority5_check.json"),
        *(
            (
                ["bounds", "--game", str(GOLDEN / f"{game}_game.json"), "--pair", pair,
                 "--format", "json"],
                f"{game}_bounds_{pair}.json",
            )
            for game in ("dense8", "majority5")
            for pair in ("chi", "cis", "eansc", "gately", "km", "tau")
            if (game, pair) != ("dense8", "tau")
        ),
        # One-player games skip the two EtaTrivial negative rows.
        (
            ["check", "--sample", "--n", "1", "--count", "20", "--seed", "0",
             "--format", "json"],
            "check_sample_n1_seed0.json",
        ),
        # Covariance probes at n = 5, and convex coincidence on every game.
        (
            ["check", "--sample", "--n", "5", "--filter", "convex", "--count", "10",
             "--seed", "0", "--format", "json"],
            "check_sample_convex_n5_seed0.json",
        ),
        # Denominators 2^512+1, 2^256+1 and 2^128+1: the common denominator
        # passes SCALE_CAP, so every sweep runs on the Fractions.
        (["report", "--game", FERMAT3, "--format", "json"], "fermat3_report.json"),
        (["check", "--game", FERMAT3, "--format", "json"], "fermat3_check.json"),
        # The default table format.
        (["report", "--game", DENSE8], "dense8_report.txt"),
        (["bounds", "--game", DENSE8, "--pair", "tau"], "dense8_bounds_tau.txt"),
        (["check", "--game", MAJORITY5], "majority5_check.txt"),
        # Past SCALE_CAP: membership, mu^eta and Kikuta/Milnor on the Fractions.
        *(
            (
                ["bounds", "--game", FERMAT3, "--pair", pair, "--format", "json"],
                f"fermat3_bounds_{pair}.json",
            )
            for pair in ("chi", "cis", "eansc", "gately", "km", "tau")
        ),
        # The suite_small benchmark workload's command.
        (
            ["check", "--sample", "--n", "5", "--count", "10", "--seed", "1",
             "--format", "json"],
            "check_sample_n5_seed1.json",
        ),
        # Integer, "p/q", decimal and exponent spellings, JSON ints and JSON
        # numbers in one table: the per-literal reader, where dense8 takes the
        # bulk one.
        (["report", "--game", MIXED6, "--format", "json"], "mixed6_report.json"),
        # Six players, with the witnesses of the five expected-negative rows.
        (
            ["check", "--sample", "--n", "6", "--count", "20", "--seed", "3",
             "--format", "json"],
            "check_sample_n6_seed3.json",
        ),
        # compute reads every field of one result: allocation, lambda and both
        # bounds, on a dense game and past SCALE_CAP.
        *(
            (
                ["compute", "--game", str(GOLDEN / f"{game}_game.json"), "--value",
                 value, "--format", "json"],
                f"compute_{game}_{value}.json",
            )
            for game in ("dense8", "fermat3")
            for value in ("tau", "chi", "gately", "cis", "pansc", "eansc", "egal", "km")
        ),
        (["compute", "--game", DENSE8, "--value", "tau"], "compute_dense8_tau.txt"),
        # Bankruptcy (claims 1..8, estate 30): convex with a negative Harsanyi
        # dividend, so the walk decides convexity, not the certificate.
        (["report", "--game", str(GOLDEN / "bankruptcy8_game.json"), "--format", "json"],
         "bankruptcy8_report.json"),
    ],
)
def test_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    expected = (GOLDEN / golden).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


# The sampled convex games of `sample --filter convex --n N --count 1
# --seed 0`, pinned by their report and check output; the game itself is
# sampled here, so no 2^N table is kept.  N = 16 pins the writer and the
# speller on long vectors and large denominators; N = 20 is opt-in.
SAMPLED_CONVEX_SIZES = [
    16,
    pytest.param(20, marks=pytest.mark.skipif(
        os.environ.get("COOPVALS_SLOW_TESTS") != "1",
        reason="set COOPVALS_SLOW_TESTS=1 to run the 20-player golden files",
    )),
]


@functools.cache
def _sampled_convex_text(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sample", "--filter", "convex", "--n", str(n), "--count", "1",
                     "--seed", "0", "--format", "json"]) == 0
    return json.dumps(json.loads(out.getvalue())[0])


@pytest.mark.parametrize("command", ["report", "check"])
@pytest.mark.parametrize("n", SAMPLED_CONVEX_SIZES)
def test_sampled_convex_game_matches_golden(n, command, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(_sampled_convex_text(n))
    capsys.readouterr()
    assert main([command, "--game", str(path), "--format", "json"]) == 0
    # Every check row passes, with no witness, so one check file serves
    # both sizes.
    name = "sample_convex_seed0_check" if command == "check" else f"sample_convex_n{n}_seed0_report"
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


# Labels are the only user text that reaches the JSON output: a quote, a
# backslash, control characters and text past ASCII, astral included.
AWKWARD_LABELS = ['say "hi"', "back\\slash\u2028", "tab\t\x01\x7f", "naïve 東京 \U0001F600"]


@pytest.mark.parametrize("argv", [
    ["report"],
    ["compute", "--value", "km"],
    ["bounds", "--pair", "eansc"],
    ["check"],
])
def test_json_output_with_awkward_labels_is_json_dumps_indent_2(argv, game_file, capsys):
    doc = {**G6, "players": 4, "labels": AWKWARD_LABELS}
    doc["worths"] = {**G6["worths"], "4": "1/2", "1,2,3,4": "21/2"}
    path = game_file(doc)
    assert main([argv[0], "--game", path, *argv[1:], "--format", "json"]) == 0
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert out == json.dumps(printed, indent=2) + "\n"
    if argv == ["report"]:
        assert printed["labels"] == AWKWARD_LABELS


@pytest.mark.parametrize(
    "worth",
    [
        "9" * 5000,  # over Python's 4300-digit int conversion limit
        '"1e50000"',
        '" 1/2 "',
        '"1_000"',
    ],
    ids=["5000-digit-integer", "huge-exponent", "padded", "underscore"],
)
def test_bad_worth_literal_exits_2(worth, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text('{"players": 2, "worths": {"1": 1, "1,2": %s}}' % worth)
    assert main(["compute", "--game", str(path), "--value", "cis"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "0"],
        ["sample", "--count", "-1"],
        ["check", "--sample", "--n", "25"],
    ],
)
def test_invalid_sampler_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_invalid_player_cap_setting_exits_2(game_file, monkeypatch, capsys):
    monkeypatch.setenv("COOPVALS_MAX_PLAYERS", "lots")
    for argv in (
        ["sample", "--count", "1"],
        ["report", "--game", game_file(G6)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "COOPVALS_MAX_PLAYERS" in captured.err


def test_check_has_no_suite_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--sample", "--suite"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "players, key, error",
    [
        (11, "1١", "error: bad coalition key"),
        (2, "1\n", "error: bad coalition key"),
        (2, "1,2\n", "error: bad coalition key"),
        (3, "1," + "9" * 5000, f"error: coalition key '1,{'9' * 5000}' names player"),
    ],
    ids=[
        "arabic-indic-digit", "trailing-newline", "pair-trailing-newline",
        "5000-digit-player",
    ],
)
def test_bad_coalition_key_exits_2(players, key, error, game_file, capsys):
    # "1١" would otherwise read as player 11.
    path = game_file({"players": players, "worths": {key: 1}})
    assert main(["compute", "--game", path, "--value", "cis"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_result_past_the_digit_limit_exits_2(fmt, game_file, capsys):
    # Each worth is a short literal, but the 255 coprime denominators near
    # 10^299 give v(N) and the values about 76000 digits.
    worths = ["0"] + [f"1/{10**299 + 2 * k + 1}" for k in range(1, 256)]
    path = game_file({"players": 8, "worths_by_mask": worths})
    assert main(["report", "--game", path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a result has more than")
    assert "Traceback" not in captured.err


HUGE = {"players": 2, "worths": {"1": 1, "2": 1, "1,2": "1e990"}}


@pytest.mark.parametrize(
    "argv, line",
    [
        (["compute", "--value", "cis"], "approx: 5e+989 5e+989"),
        (["report"], " (approx 5e+989 5e+989) lambda="),
        (["bounds", "--pair", "tau"], " (approx 1e+990 1e+990)"),
    ],
    ids=["compute", "report", "bounds"],
)
def test_table_output_past_the_float_range(argv, line, game_file, capsys):
    assert main([*argv, "--game", game_file(HUGE)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert line in captured.out


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e6, allow_infinity=False), st.booleans())
@example(9999999.7, False)  # rounds up to the next power of ten
@example(9.9999996e306, True)
def test_scientific_spelling_matches_float_format(x, negative):
    # A float's Fraction is its exact value, so both round the same number.
    x = -x if negative else x
    assert _scientific(Fraction(x)) == f"{x:.6g}"


def test_approximation_below_the_float_range():
    # float() gives 0, -0 and a subnormal with too few digits for these.
    xs = [Fraction(1, 10**400), Fraction(-3, 10**500), Fraction(7, 3 * 10**320)]
    assert _approx(xs) == "1e-400 -3e-500 2.33333e-320"


def test_compute_below_the_float_range(game_file, capsys):
    tiny = {"players": 1, "worths": {"1": "1e-400"}}
    assert main(["compute", "--game", game_file(tiny), "--value", "cis"]) == 0
    assert "approx: 1e-400" in capsys.readouterr().out.splitlines()


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(game_file, capsys):
    path = game_file(G8)
    calls = [
        ["compute", "--game", path, "--value", "cis"],
        ["compute", "--game", path, "--value", "nonsense"],
        ["bounds", "--game", path, "--pair", "km", "--format", "json"],
        ["sample", "--n", "2", "--count", "2", "--seed", "3"],
        ["check", "--sample", "--count", "2"],
        ["report", "--game", path],
        ["check", "--game", path, "--format", "json"],
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(_outcome(argv, capsys))
    assert alone[1][0] == ("exit", 2)
    build_parser.cache_clear()
    parser = build_parser()
    together = [_outcome(argv, capsys) for argv in calls]
    assert build_parser() is parser
    assert together == alone


FERMAT = [2 ** (2**k) + 1 for k in range(10)]


def _printed_doc(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def _strs(xs) -> list:
    return [str(x) for x in xs]


def _fermat_games(n):
    # Worths over Fermat denominators: the common denominator passes
    # SCALE_CAP, so every pair printed is held as Fractions.
    return st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(FERMAT)),
        min_size=(1 << n) - 1, max_size=(1 << n) - 1,
    ).map(lambda worths: TUGame(n, [0, *worths]))


_PRINTED_GAMES = st.integers(2, 5).flatmap(lambda n: st.one_of(
    st.builds(
        lambda f, seed: sample_games(SamplerConfig(
            n_min=n, n_max=n, class_filter=f, count=1, seed=seed
        ))[0],
        st.sampled_from(["any", "convex"]),
        st.integers(0, 2**32),
    ),
    _fermat_games(n),
))


@settings(max_examples=25, deadline=None)
@given(_PRINTED_GAMES)
# An additive game: m = M, so tau, chi and gately have no weight.
@example(TUGame(3, [0, 1, 2, 3, 3, 4, 5, 6]))
@example(parse_game_file((GOLDEN / "fermat3_game.json").read_bytes()))
def test_printed_rationals_are_str_of_the_fraction_fields(v):
    # report, bounds and the check witnesses spell each rational from its
    # scaled pair; the text is str() of the Fraction it stands for.
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "game.json")
        Path(path).write_text(serialise_game(v))
        report = _printed_doc(["report", "--game", path, "--format", "json"])
        pairs = {
            pair: _printed_doc(
                ["bounds", "--game", path, "--pair", pair, "--format", "json"]
            )
            for pair in PAIR_MAP
        }
    assert report["total"] == str(v.total)
    for vid, value in VALUES.items():
        try:
            r = value(v)
        except DomainError as exc:
            assert report["values"][vid] == {"error": str(exc)}
            continue
        assert report["values"][vid] == {
            "value": r.value_id,
            "allocation": _strs(r.allocation),
            "lambda": None if r.lam is None else str(r.lam),
            "lower": _strs(r.lower_used),
            "upper": _strs(r.upper_used),
            "route": r.route,
        }
    for pair, doc in pairs.items():
        mu, eta = (functional(f)(v) for f in PAIR_MAP[pair])
        assert (doc["mu"], doc["eta"]) == (_strs(mu), _strs(eta))
        assert (doc["sum_mu"], doc["sum_eta"], doc["total"]) == tuple(
            map(str, (sum(mu), sum(eta), v.total))
        )
    suite = run_suite_on_games([v])
    for check, row in zip(suite.checks, suite.to_dict()["checks"]):
        if check.witness is not None:
            w = check.witness
            assert (row["witness"]["lhs"], row["witness"]["rhs"]) == (
                _strs(w.lhs), _strs(w.rhs)
            )


def test_text_of_results_and_witnesses_made_by_their_constructors():
    # Built from their fields, which they keep with their pairs over 1: the
    # text is spelled from the pairs, as str() of each field would be.
    r = ValueResult("made", (Fraction(1, 2), 3), Fraction(2, 6), (0, 1), (1, 4))
    assert _result_docs([r]) == [{
        "value": "made", "allocation": ["1/2", "3"], "lambda": "1/3",
        "lower": ["0", "1"], "upper": ["1", "4"], "route": None,
    }]
    # Several results in one call: a zero weight prints as "0", no weight
    # as null.
    at_lower = ValueResult("low", (0, 1), Fraction(0), (0, 1), (2, 2), "r")
    flat = ValueResult("flat", (Fraction(5, 2),), None, (Fraction(5, 2),), (Fraction(5, 2),))
    docs = _result_docs([at_lower, r, flat])
    assert [(d["value"], d["lambda"], d["upper"]) for d in docs] == [
        ("low", "0", ["2", "2"]), ("made", "1/3", ["1", "4"]), ("flat", None, ["5/2"]),
    ]
    w = Witness(1, (Fraction(4, 6), 2), (1, Fraction(-1, 3)))
    for made in (w, pickle.loads(pickle.dumps(w))):
        assert made._lhs == (1, (Fraction(2, 3), 2))
        assert made._rhs == (1, (1, Fraction(-1, 3)))
        assert _spelled(made._lhs, made._rhs) == [["2/3", "2"], ["1", "-1/3"]]
        assert made == w
