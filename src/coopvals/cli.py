"""Command line interface.

    coopvals report  --game g.json [--format table|json]
    coopvals compute --game g.json --value tau [--format table|json]
    coopvals bounds  --game g.json --pair km [--format table|json]
    coopvals check   (--game g.json | --sample) [--seed N] [--count N]
                     [--n N] [--filter CLASS] [--format table|json]
    coopvals sample  [--seed N] [--count N] [--n N] [--filter CLASS]
                     [--format table|json]

Exit codes: 0 success, 1 domain error (game outside a value's class, player
cap exceeded, failing check suite), 2 parse error, unreadable input, an
invalid sampler flag or COOPVALS_MAX_PLAYERS setting, or a result with more
digits than Python converts to text (sys.get_int_max_str_digits(), 4300 by
default; the limit guards against quadratic-time conversion and is not
lifted).  Output is written only once a command has finished, so a command
that fails prints no partial result.
Rationals are printed as p/q strings, str() of the Fraction, spelled from
the scaled pairs of the results with no Fraction, all the results of a
document in one call; table mode adds decimal approximations to six
significant digits, computed exactly outside the normal float range (past
it, and nonzero values below 2.2e-308).  JSON output is json.dumps(doc, indent=2)
byte for byte, written by gamefile._json_text, and byte-deterministic for
a fixed input and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from dataclasses import fields
from fractions import Fraction

from . import bounds, values, verify
from .errors import CoopvalsError, DomainError
from .game import _spelled, _total, classify
from .gamefile import _games_text, _json_text, game_doc, parse_game_file

# `bounds --pair`: the pairs values declares; for eansc, its (mu~, M) route.
PAIR_MAP = {
    **{vid: values.AXIOM_PAIRS[vid] for vid in ("km", "tau", "chi", "cis", "gately")},
    "eansc": values.EANSC_ROUTES["(mu~, M)"][0],
}


def _load_game(path):
    with open(path, "rb") as handle:
        return parse_game_file(handle.read())


def _vec(texts) -> str:
    return " ".join(texts)


def _approx_one(x: Fraction) -> str:
    # Past the float range float() overflows; below it, it rounds to a
    # subnormal with fewer digits or to zero.  Both ends take the exact path.
    try:
        approx = float(x)
    except OverflowError:
        return _scientific(x)
    if x and abs(approx) < sys.float_info.min:
        return _scientific(x)
    return f"{approx:.6g}"


def _scientific(x: Fraction) -> str:
    """x to six significant digits in scientific notation, spelled as
    format(float, ".6g") spells numbers from 10^6 up ("1.5e+300"), but exact
    and for any size."""
    magnitude = abs(x)
    # The exponent e with 10^e <= |x| < 10^(e + 1), from the digit counts.
    e = len(str(magnitude.numerator)) - len(str(magnitude.denominator))
    if magnitude < Fraction(10) ** e:
        e -= 1
    digits = round(magnitude / Fraction(10) ** (e - 5))  # ties to even
    if digits == 10**6:
        digits, e = 10**5, e + 1
    text = str(digits)
    mantissa = f"{text[0]}.{text[1:]}".rstrip("0").rstrip(".")
    return f"{'-' if x < 0 else ''}{mantissa}e{e:+03d}"


def _approx(xs) -> str:
    return " ".join(map(_approx_one, xs))


def _bool(flag) -> str:
    if flag is None:
        return "n/a"
    return "true" if flag else "false"


def _fields(report) -> dict:
    """The fields of a flag report by name, in order: asdict with no deep copy."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _result_docs(results: list) -> list:
    """The document of each result, all spelled by one _spelled call."""
    pairs = []
    for r in results:  # no weight is the pair (1, ()), spelled as []
        lam = (1, ()) if r._lam is None else (r._lam[1], r._lam[:1])
        pairs += (r._scaled, lam, r._lower, r._upper)
    texts = iter(_spelled(*pairs))
    return [
        {"value": r.value_id, "allocation": allocation, "lambda": lam[0] if lam else None,
         "lower": lower, "upper": upper, "route": r.route}
        for r, (allocation, lam, lower, upper) in zip(results, zip(texts, texts, texts, texts))
    ]


def cmd_report(args) -> int:
    v = _load_game(args.game)
    classes = _fields(classify(v))
    rows = {}
    for vid, fn in values.VALUES.items():
        try:
            rows[vid] = fn(v)
        except DomainError as exc:
            rows[vid] = str(exc)
    computed = [vid for vid, r in rows.items() if isinstance(r, values.ValueResult)]
    docs = dict(zip(computed, _result_docs([rows[vid] for vid in computed])))
    [[total]] = _spelled(v._scaled_total)

    if args.format == "json":
        doc = {
            "players": v.n,
            "labels": None if v.labels is None else list(v.labels),
            "total": total,
            "classification": classes,
            "values": {
                vid: docs[vid] if vid in docs else {"error": r}
                for vid, r in rows.items()
            },
        }
        print(_json_text(doc))
        return 0

    print(f"players: {v.n}")
    if v.labels is not None:
        print(f"labels: {' '.join(v.labels)}")
    print(f"v(N): {total}")
    flags = ", ".join(f"{k}={_bool(x)}" for k, x in classes.items())
    print(f"classes: {flags}")
    for vid, r in rows.items():
        if vid in docs:
            doc = docs[vid]
            print(
                f"{vid}: {_vec(doc['allocation'])} (approx {_approx(r.allocation)}) "
                f"lambda={doc['lambda'] or 'none'} lower=[{_vec(doc['lower'])}] "
                f"upper=[{_vec(doc['upper'])}]"
            )
        else:
            print(f"{vid}: {r}")
    return 0


def cmd_compute(args) -> int:
    v = _load_game(args.game)
    result = values.VALUES[args.value](v)
    (doc,) = _result_docs([result])
    if args.format == "json":
        print(_json_text(doc))
        return 0
    print(_vec(doc["allocation"]))
    print(f"approx: {_approx(result.allocation)}")
    print(f"lambda: {doc['lambda'] or 'none'}")
    print(f"lower: {_vec(doc['lower'])}")
    print(f"upper: {_vec(doc['upper'])}")
    if result.route is not None:
        print(f"route: {result.route}")
    return 0


def cmd_bounds(args) -> int:
    v = _load_game(args.game)
    mu_id, eta_id = PAIR_MAP[args.pair]
    mu_fn, eta_fn = bounds.functional(mu_id), bounds.functional(eta_id)
    mu, eta = mu_fn._scaled(v), eta_fn._scaled(v)
    mu_text, eta_text, (sum_mu,), (sum_eta,), (total,) = _spelled(
        mu, eta, _total(mu), _total(eta), v._scaled_total
    )
    membership = bounds.membership(v, mu_fn, eta_fn)
    # The MembershipReport fields, named once for both formats.
    flags = {k.removeprefix("in_"): x for k, x in _fields(membership).items()}

    if args.format == "json":
        doc = {
            "pair": args.pair,
            "mu_id": mu_fn.id,
            "eta_id": eta_fn.id,
            "mu": mu_text,
            "eta": eta_text,
            "sum_mu": sum_mu,
            "sum_eta": sum_eta,
            "total": total,
            **flags,
        }
        print(_json_text(doc))
        return 0

    print(f"pair: {args.pair} ({mu_fn.id}, {eta_fn.id})")
    print(f"mu: {_vec(mu_text)} (approx {_approx(mu_fn(v))})")
    print(f"eta: {_vec(eta_text)} (approx {_approx(eta_fn(v))})")
    print(f"sum_mu: {sum_mu}")
    print(f"sum_eta: {sum_eta}")
    print(f"v(N): {total}")
    for name, flag in flags.items():
        print(f"{name}: {_bool(flag)}")
    return 0


def _print_suite(report: verify.SuiteReport, fmt: str) -> int:
    if fmt == "json":
        print(_json_text(report.to_dict()))
    else:
        for c in report.checks:
            status = "OK" if c.ok else "FAIL"
            tag = " [expected-negative]" if c.expected_negative else ""
            print(
                f"{status:<4} {c.check_id:<55} "
                f"passed={c.passed} failed={c.failed} skipped={c.skipped}{tag}"
            )
        print(f"games: {report.game_count}")
        print(f"ok: {_bool(report.ok)}")
    return 0 if report.ok else 1


def _sampler_config(args) -> verify.SamplerConfig:
    """The sampler flags of `check --sample` and `sample` as a config."""
    return verify.SamplerConfig(
        n_min=args.n,
        n_max=args.n,
        class_filter=args.filter,
        count=args.count,
        seed=args.seed,
    )


def cmd_check(args) -> int:
    if args.game is not None:
        v = _load_game(args.game)
        report = verify.run_suite_on_games(
            [v], seed=args.seed, negative_fixtures=False
        )
    else:
        report = verify.run_suite(_sampler_config(args))
    return _print_suite(report, args.format)


def cmd_sample(args) -> int:
    games = verify.sample_games(_sampler_config(args))
    if args.format == "json":
        print(_games_text(games))
    else:
        for v in games:
            print(json.dumps(game_doc(v), separators=(",", ":")))
    return 0


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style (default table)",
    )


def _add_sampler_flags(parser, default_count: int) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--count", type=int, default=default_count,
        help=f"number of games (default {default_count})",
    )
    parser.add_argument("--n", type=int, default=3, help="players per game")
    parser.add_argument(
        "--filter", choices=verify.CLASS_FILTERS, default="any",
        help="game class to sample from (default any)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="coopvals",
        description="Exact compromise values for cooperative TU-games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="classify a game and list every value")
    p.add_argument("--game", required=True, metavar="PATH")
    _add_format(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compute", help="compute one named value")
    p.add_argument("--game", required=True, metavar="PATH")
    p.add_argument("--value", required=True, choices=sorted(values.VALUES))
    _add_format(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bounds", help="show a value's bound pair and classes")
    p.add_argument("--game", required=True, metavar="PATH")
    p.add_argument("--pair", required=True, choices=sorted(PAIR_MAP))
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="run the verification suite")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--game", metavar="PATH", help="check this one game")
    source.add_argument(
        "--sample", action="store_true", help="check seeded random games"
    )
    _add_sampler_flags(p, default_count=100)
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="emit seeded random games as JSON")
    _add_sampler_flags(p, default_count=10)
    _add_format(p)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except DomainError as exc:
        print(str(exc))
        return 1
    except (CoopvalsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of an int past the interpreter's digit limit; nothing else
        # in the package raises a bare ValueError.
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"error: a result has more than {sys.get_int_max_str_digits()} "
            "digits, the most Python converts to text",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
