"""The three workloads: inputs from a seed, one timed operation, its checks.

Every operation drives ``coopvals.cli.main(argv)`` in this process and
captures its standard output.  The checks compare that output with
references the package did not produce: the frozenset oracles in
``tests/oracles.py``, closed forms computed here from the oracle marginal
vector, and a supermodularity test written here.  A check returns a list
of problems; an empty list means the operation is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Call main(argv) with stdout captured; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


class ProgramSeeds:
    """Fresh program seeds, one per operation; the i-th depends only on
    the workload and the workload seed."""

    def __init__(self, tag: str, seed: int):
        self._rng = random.Random(f"{tag}:{seed}")
        self._seeds: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.randrange(1 << 30))
        return self._seeds[i]


class Workload:
    """One workload: run(i) is timed, check(i, result) is not.

    Workloads keep modules, not functions, and look functions up at call
    time, so that a traced run's wrappers are the ones called.
    """

    name = ""
    # Operations whose counts a traced run reports; see tracing.per_layer_metrics.
    trace_window = 1

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def can_stop_after(self, i: int) -> bool:
        """Whether the timed loop may end after operation i."""
        return True

    def output_bytes(self, result) -> int:
        """Bytes the CLI printed during one operation."""
        return len(result.stdout.encode("utf-8"))


# ----- suite_small ------------------------------------------------------


class SuiteSmall(Workload):
    """`check --sample --n 5 --count 10` with a fresh program seed per op."""

    name = "suite_small"
    trace_window = 6

    def __init__(self, program, oracles, seed: int, workdir: Path):
        self.cli = program["cli"]
        self.seeds = ProgramSeeds(self.name, seed)

    def run(self, i: int):
        argv = ["check", "--sample", "--n", "5", "--count", "10",
                "--seed", str(self.seeds[i]), "--format", "json"]
        rc, out = run_cli(self.cli.main, argv)
        return SimpleNamespace(rc=rc, stdout=out)

    def check(self, i: int, result) -> list[str]:
        return check_suite(result.rc, result.stdout, game_count=10)


def check_suite(rc: int, stdout: str, game_count: int) -> list[str]:
    """Exit 0, ok, the right game count, and no failure outside the
    intentional negative fixtures."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(stdout)
    problems = []
    if doc.get("ok") is not True:
        problems.append("suite reports ok != true")
    if doc.get("game_count") != game_count:
        problems.append(f"game_count {doc.get('game_count')} != {game_count}")
    for c in doc["checks"]:
        if not c["expected_negative"] and c["failed"] != 0:
            problems.append(f"{c['check_id']}: {c['failed']} failed")
    return problems


# ----- inspect_dense ----------------------------------------------------

DENSE_SIZES = (8, 9, 10)
GAMES_PER_SIZE = 2


def dense_convex_worths(rng: random.Random, n: int) -> list[Fraction]:
    """v(S) = (w . 1_S)^2 / d + x(S) with w >= 1 and x >= 0, in O(n 2^n).

    The square of a nonnegative additive game is supermodular and adding
    an additive game keeps it so; with w >= 1 the game is strictly convex,
    and with x >= 0 every marginal contribution is positive, so every value
    the report lists is defined and no guard fails.
    """
    w = [rng.randint(1, 9) for _ in range(n)]
    d = rng.randint(1, 6)
    x = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
    ws = [0] * (1 << n)
    xs = [Fraction(0)] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        i = low.bit_length() - 1
        ws[S] = ws[S ^ low] + w[i]
        xs[S] = xs[S ^ low] + x[i]
    return [Fraction(ws[S] * ws[S], d) + xs[S] for S in range(1 << n)]


def dense_references(oracles, n: int, worths: list[Fraction]) -> dict:
    """Expected vectors for one game, from the oracles and closed forms."""
    table = oracles.game_from_tugame(SimpleNamespace(n=n, worths=worths))
    players = range(1, n + 1)
    M = [oracles.marginal_vector(table)[i] for i in players]
    rights = oracles.minimal_rights_vector(table)
    m = [rights[i] for i in players]
    tau_map = oracles.tau_vector(table)
    tau = [tau_map[i] for i in players]
    nu = [worths[1 << i] for i in range(n)]
    vN = worths[-1]
    s_nu, s_M = sum(nu), sum(M)
    lam = (vN - s_nu) / (s_M - s_nu)
    return {
        "total": vN,
        "marginal": M,
        "minimal_rights": m,
        "allocations": {
            "tau": tau,
            "chi": tau,
            "km": tau,
            "gately": [a + lam * (b - a) for a, b in zip(nu, M)],
            "cis": [a + (vN - s_nu) / n for a in nu],
            "pansc": [b * vN / s_M for b in M],
            "eansc": [b + (vN - s_M) / n for b in M],
            "egal": [vN / n] * n,
        },
    }


def _vector(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def check_dense(report_doc: dict, bounds_doc: dict, ref: dict) -> list[str]:
    """Compare `report` and `bounds --pair tau` output with the references."""
    problems = []
    if report_doc["classification"]["convex"] is not True:
        problems.append("report: game not classified convex")
    if Fraction(report_doc["total"]) != ref["total"]:
        problems.append("report: total differs")
    results = report_doc["values"]
    for vid, expected in ref["allocations"].items():
        entry = results.get(vid, {})
        if "allocation" not in entry:
            problems.append(f"report: {vid} missing or undefined: {entry.get('error')}")
        elif _vector(entry["allocation"]) != expected:
            problems.append(f"report: {vid} allocation differs from reference")
    tau = results.get("tau", {})
    if "lower" in tau and _vector(tau["lower"]) != ref["minimal_rights"]:
        problems.append("report: tau lower bound differs from oracle minimal rights")
    if "upper" in tau and _vector(tau["upper"]) != ref["marginal"]:
        problems.append("report: tau upper bound differs from oracle marginal vector")
    if _vector(bounds_doc["mu"]) != ref["minimal_rights"]:
        problems.append("bounds: mu differs from oracle minimal rights")
    if _vector(bounds_doc["eta"]) != ref["marginal"]:
        problems.append("bounds: eta differs from oracle marginal vector")
    if Fraction(bounds_doc["total"]) != ref["total"]:
        problems.append("bounds: total differs")
    if bounds_doc["balanced"] is not True:
        problems.append("bounds: convex game not reported balanced")
    return problems


class InspectDense(Workload):
    """`report` then `bounds --pair tau` on dense convex games, n = 8, 9, 10.

    The files are visited in the fixed order 8, 9, 10, 8, 9, 10, ... and a
    run ends only after an n = 10 file, so the sizes get equal shares.
    """

    name = "inspect_dense"
    trace_window = 2 * len(DENSE_SIZES)

    def __init__(self, program, oracles, seed: int, workdir: Path):
        self.cli = program["cli"]
        rng = random.Random(f"{self.name}:{seed}")
        self.files: list[tuple[str, dict]] = []
        for j in range(GAMES_PER_SIZE):
            for n in DENSE_SIZES:
                worths = dense_convex_worths(rng, n)
                path = workdir / f"dense-seed{seed}-n{n}-{j}.json"
                doc = {"players": n, "worths_by_mask": [str(w) for w in worths]}
                path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
                self.files.append((str(path), dense_references(oracles, n, worths)))

    def run(self, i: int):
        path, _ = self.files[i % len(self.files)]
        rc_report, report = run_cli(self.cli.main, ["report", "--game", path, "--format", "json"])
        rc_bounds, pair = run_cli(
            self.cli.main, ["bounds", "--game", path, "--pair", "tau", "--format", "json"])
        return SimpleNamespace(rc=(rc_report, rc_bounds), stdout=report + pair,
                               report=report, bounds=pair)

    def check(self, i: int, result) -> list[str]:
        if result.rc != (0, 0):
            return [f"exit codes {result.rc}"]
        _, ref = self.files[i % len(self.files)]
        return check_dense(json.loads(result.report), json.loads(result.bounds), ref)

    def can_stop_after(self, i: int) -> bool:
        return (i + 1) % len(DENSE_SIZES) == 0


# ----- sample_roundtrip -------------------------------------------------


def worths_from_doc(doc: dict) -> list[Fraction]:
    """Dense worth table of a sparse game document, parsed here."""
    n = doc["players"]
    table = [Fraction(0)] * (1 << n)
    for key, value in doc["worths"].items():
        mask = 0
        for player in key.split(","):
            mask |= 1 << (int(player) - 1)
        table[mask] = Fraction(value)
    return table


def is_supermodular(n: int, worths: list[Fraction]) -> bool:
    """v(S+i+j) - v(S+j) >= v(S+i) - v(S) for all players i < j and S avoiding both.

    The worths are scaled to integers first, so the loop compares ints.
    """
    scale = math.lcm(*(w.denominator for w in worths))
    W = [w.numerator * (scale // w.denominator) for w in worths]
    full = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            rest = full ^ bi ^ bj
            S = rest
            while True:
                if W[S | bi | bj] - W[S | bj] < W[S | bi] - W[S]:
                    return False
                if S == 0:
                    break
                S = (S - 1) & rest
    return True


class SampleRoundtrip(Workload):
    """`sample --filter convex --n 10 --count 1`, then store and reload.

    Each emitted game is written out in the canonical file form, parsed
    with gamefile.parse_game_file and serialised again; all of it is timed.
    """

    name = "sample_roundtrip"
    trace_window = 20
    players = 10

    def __init__(self, program, oracles, seed: int, workdir: Path):
        self.cli = program["cli"]
        self.gamefile = program["gamefile"]
        self.seeds = ProgramSeeds(self.name, seed)

    def run(self, i: int):
        argv = ["sample", "--filter", "convex", "--n", str(self.players), "--count", "1",
                "--seed", str(self.seeds[i]), "--format", "json"]
        rc, out = run_cli(self.cli.main, argv)
        texts = [json.dumps(doc, indent=2) + "\n" for doc in json.loads(out)] if rc == 0 else []
        gamefile = self.gamefile
        back = [gamefile.serialise_game(gamefile.parse_game_file(t.encode("utf-8")))
                for t in texts]
        return SimpleNamespace(rc=rc, stdout=out, texts=texts, back=back)

    def check(self, i: int, result) -> list[str]:
        if result.rc != 0:
            return [f"exit code {result.rc}"]
        if len(result.texts) != 1:
            return [f"{len(result.texts)} games emitted, expected 1"]
        problems = []
        if result.back != result.texts:
            problems.append("round trip is not byte-identical")
        doc = json.loads(result.texts[0])
        if doc["players"] != self.players:
            problems.append(f"game has {doc['players']} players")
        elif not is_supermodular(self.players, worths_from_doc(doc)):
            problems.append("sampled game is not supermodular")
        return problems


WORKLOADS = {w.name: w for w in (SuiteSmall, InspectDense, SampleRoundtrip)}
