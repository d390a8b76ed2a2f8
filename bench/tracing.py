"""Spans and counters for the traced run, installed from outside the package.

The package has no instrumentation of its own.  For a traced run the
benchmark replaces the public functions of each module with timing
wrappers, in every namespace that binds them (``verify.transform`` is the
same function as ``game.transform``, and a call through either name must
be seen), in every module-level dict that holds them (``values.VALUES``),
and in the ``evaluate`` field of every bound functional reachable from a
module-level container (``bounds.REGISTRY``, ``values.AXIOM_PAIRS``,
``cli.PAIR_MAP``) or built at run time by the functional factories.

A span is one call of a wrapped function: its name, its layer (the module
that defines it), the span open when it started, the operation it belongs
to, and its start and end in nanoseconds.  Spans stay in memory and are
written out when the run ends.  Counters that need no timing (calls of the
per-coalition ``coalition_total``, Fraction constructions per innermost
layer, repeated functional evaluations, suite verdicts, bytes) are kept
per operation.
"""

from __future__ import annotations

import contextlib
import fractions
import gzip
import time
from collections import Counter
from typing import Sequence

# Layers in call order, each with the public functions timed in it.
TARGETS = {
    "cli": ("main",),
    "gamefile": ("parse_game_file", "serialise_game", "game_doc"),
    "verify": ("run_suite", "sample_games", "check_axiom", "check_convex_coincidence"),
    "values": (
        "tau", "chi", "gately", "cis", "pansc", "eansc", "egalitarian", "km",
        "compromise", "lbc_value", "ubc_value",
    ),
    "bounds": (
        "minimal_rights", "kikuta_lower", "milnor_upper", "mu_from_upper",
        "is_strongly_upper_bounded", "membership", "check_bound_pair",
        "is_regular_lower", "check_translation_covariance",
    ),
    "game": ("classify", "transform", "dual", "subtract_allocation"),
}
LAYERS = tuple(TARGETS)

# Spans that are not module functions: every BoundFunctional.evaluate call,
# and every TUGame construction.
EVALUATE = "bounds.evaluate"
CONSTRUCT = "game.TUGame"
SPAN_NAMES = tuple(
    [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
    + [EVALUATE, CONSTRUCT]
)

# Functional factories whose results get a traced evaluate field.
FACTORIES = ("derived_lower_from_upper", "derived_upper_from_lower", "constant_lower")

# Span record fields.
NAME, LAYER, PARENT, OP, START, END = range(6)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run reports, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.ms"]
    for layer in LAYERS:
        names += [f"{layer}.self_ms", f"{layer}.fractions"]
    names += [
        "game.coalition_total.calls",
        "bounds.evaluate.repeat_ratio",
        "verify.suite.verdict_ratio",
        "gamefile.input_bytes",
        "cli.output_bytes",
        "trace.overhead_ratio",
    ]
    return names


class Tracer:
    """Holds the spans and counters of one traced run.

    Not thread safe: the benchmark drives the program from one thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: list[Counter] = []
        self.op = -1
        self._stack: list[int] = []
        self._frac_keys: list[str] = []
        self._counts = Counter()
        self._undo: list = []
        self._wrapped: dict[int, object] = {}
        self._game_tokens: dict[int, tuple] = {}
        self._contents: dict[tuple, int] = {}
        self._evaluated: set = set()
        self._fraction_new = fractions.Fraction.__dict__["__new__"]

    # ----- operations -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._counts = Counter()

    def end_op(self, output_bytes: int) -> None:
        self._counts["cli.output_bytes"] += output_bytes
        self.op_counts.append(self._counts)
        # Repeats are counted within one operation only.
        self._game_tokens.clear()
        self._contents.clear()
        self._evaluated.clear()

    # ----- wrappers ---------------------------------------------------

    def span(self, name: str, layer: str, fn):
        """fn wrapped so that each call records one span."""
        spans, stack, frac_keys = self.spans, self._stack, self._frac_keys
        clock = time.perf_counter_ns
        frac_key = f"{layer}.fractions"

        def traced(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, self.op, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            frac_keys.append(frac_key)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                frac_keys.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, key: str, fn):
        def counted(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _game_token(self, v) -> int:
        """A small int equal for equal games within one operation."""
        entry = self._game_tokens.get(id(v))
        if entry is None:
            token = self._contents.setdefault((v.n, v.worths), len(self._contents))
            entry = self._game_tokens[id(v)] = (v, token)  # v kept alive: ids stay unique
        return entry[1]

    def _traced_evaluate(self, fn_id: str, evaluate):
        timed = self.span(EVALUATE, "bounds", self._wrapped.get(id(evaluate), evaluate))

        def traced_evaluate(v):
            key = (fn_id, self._game_token(v))
            self._counts["bounds.evaluate.count"] += 1
            if key in self._evaluated:
                self._counts["bounds.evaluate.repeats"] += 1
            else:
                self._evaluated.add(key)
            return timed(v)

        traced_evaluate.__wrapped__ = evaluate
        return traced_evaluate

    def _patch_functional(self, bf, undo: bool) -> None:
        if getattr(bf.evaluate, "__wrapped__", None) is not None:
            return
        original = bf.evaluate
        object.__setattr__(bf, "evaluate", self._traced_evaluate(bf.id, original))
        if undo:
            self._undo.append(lambda: object.__setattr__(bf, "evaluate", original))

    def _factory(self, factory):
        def traced_factory(*args, **kwargs):
            bf = factory(*args, **kwargs)
            self._patch_functional(bf, undo=False)
            return bf

        traced_factory.__wrapped__ = factory
        return traced_factory

    # ----- install / uninstall ----------------------------------------

    def install(self, program) -> None:
        """Wrap the program's functions; uninstall() restores every one.

        program maps each layer name to its module and "package" to the
        package itself.
        """
        modules = [program["package"]] + [program[layer] for layer in LAYERS]
        bounds, game = program["bounds"], program["game"]
        for layer, names in TARGETS.items():
            for name in names:
                original = getattr(program[layer], name)
                wrapped = self.span(f"{layer}.{name}", layer, original)
                if (layer, name) == ("verify", "run_suite"):
                    wrapped = self._suite_verdicts(wrapped)
                if (layer, name) == ("gamefile", "parse_game_file"):
                    wrapped = self._input_bytes(wrapped)
                self._wrapped[id(original)] = wrapped
                self._rebind(modules, original, wrapped)
        self._rebind(modules, game.coalition_total,
                     self._count_calls("game.coalition_total.calls", game.coalition_total))
        for name in FACTORIES:
            factory = getattr(bounds, name)
            self._rebind(modules, factory, self._factory(factory))

        init = game.TUGame.__init__
        game.TUGame.__init__ = self.span(CONSTRUCT, "game", init)
        self._undo.append(lambda: setattr(game.TUGame, "__init__", init))

        for bf in _reachable_functionals(modules, bounds.BoundFunctional):
            self._patch_functional(bf, undo=True)

        slot = self._fraction_new
        original_new = fractions.Fraction.__new__
        frac_keys = self._frac_keys

        def counting_new(cls, *args, **kwargs):
            if frac_keys:
                self._counts[frac_keys[-1]] += 1
            return original_new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counting_new)
        self._undo.append(lambda: setattr(fractions.Fraction, "__new__", slot))

    @contextlib.contextmanager
    def fractions_uncounted(self):
        """Fraction construction without the counting hook, for timing the
        reference workload in a traced loop."""
        hooked = fractions.Fraction.__dict__["__new__"]
        fractions.Fraction.__new__ = self._fraction_new
        try:
            yield
        finally:
            fractions.Fraction.__new__ = hooked

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = replacement
                    self._undo.append(_restore_item(namespace, name, original))
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            self._undo.append(_restore_item(value, key, original))

    def _suite_verdicts(self, run_suite):
        def traced_run_suite(*args, **kwargs):
            report = run_suite(*args, **kwargs)
            for c in report.checks:
                self._counts["verify.suite.checks"] += c.passed + c.failed + c.skipped
                self._counts["verify.suite.verdicts"] += c.passed + c.failed
            return report

        return traced_run_suite

    def _input_bytes(self, parse):
        def traced_parse(data, *args, **kwargs):
            size = len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))
            self._counts["gamefile.input_bytes"] += size
            return parse(data, *args, **kwargs)

        return traced_parse

    # ----- output -----------------------------------------------------

    def write_spans(self, path) -> None:
        """Write spans as gzipped tab-separated lines, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tparent\top\tstart_ns\tend_ns\n")
            for i, rec in enumerate(self.spans):
                out.write(f"{i}\t{rec[NAME]}\t{rec[PARENT]}\t{rec[OP]}\t{rec[START]}\t{rec[END]}\n")


def _restore_item(container, key, value):
    return lambda: container.__setitem__(key, value)


def _reachable_functionals(modules, functional_type) -> list:
    """Bound functionals held by module globals, dicts, or tuples in dicts."""
    found: dict[int, object] = {}

    def visit(value):
        if isinstance(value, functional_type):
            found.setdefault(id(value), value)
        elif isinstance(value, tuple):
            for item in value:
                visit(item)

    for module in modules:
        for value in vars(module).values():
            visit(value)
            if isinstance(value, dict):
                for item in value.values():
                    visit(item)
    return list(found.values())


# ----- span arithmetic ------------------------------------------------


def self_times(spans: Sequence[Sequence], scales: Sequence[float] | None = None) -> Counter:
    """Nanoseconds of self time per layer.

    A span's self time is its duration minus the durations of its direct
    children.  Children of one span never overlap (one thread), so this is
    the part of the span that no child covers.  With scales, each span's
    time is multiplied by the speed scale of its operation.
    """
    child_total = Counter()
    for rec in spans:
        if rec[PARENT] >= 0:
            child_total[rec[PARENT]] += rec[END] - rec[START]
    out = Counter()
    for i, rec in enumerate(spans):
        scale = 1 if scales is None else scales[rec[OP]]
        out[rec[LAYER]] += (rec[END] - rec[START] - child_total[i]) * scale
    return out


def busy_times(spans: Sequence[Sequence], scales: Sequence[float] | None = None) -> Counter:
    """Nanoseconds per span name during which a span of that name was open.

    A span nested inside another span of the same name adds nothing, so
    recursion is not counted twice.  Scales as in self_times.
    """
    out = Counter()
    for rec in spans:
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != rec[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            scale = 1 if scales is None else scales[rec[OP]]
            out[rec[NAME]] += (rec[END] - rec[START]) * scale
    return out


def per_layer_metrics(
    spans: Sequence[Sequence],
    op_counts: Sequence[Counter],
    window: int,
    overhead_ratio: float,
    scales: Sequence[float] | None = None,
) -> dict[str, float]:
    """Per-operation means of every per-layer metric.

    Counts (calls, Fraction constructions, bytes, ratios) come from the
    first `window` operations, so two traced runs with one seed report
    identical counts however many operations each fits into its time.
    Times come from every traced operation, each scaled by its
    operation's speed scale when scales are given.
    """
    ops = len(op_counts)
    if not 1 <= window <= ops:
        raise ValueError(f"count window {window} outside 1..{ops}")
    in_window = [rec for rec in spans if rec[OP] < window]
    calls = Counter(rec[NAME] for rec in in_window)
    busy = busy_times(spans, scales)
    own = self_times(spans, scales)
    counts = Counter()
    for c in op_counts[:window]:
        counts.update(c)

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / window
        metrics[f"{name}.ms"] = busy[name] / 1e6 / ops
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = own[layer] / 1e6 / ops
        metrics[f"{layer}.fractions"] = counts[f"{layer}.fractions"] / window
    metrics["game.coalition_total.calls"] = counts["game.coalition_total.calls"] / window
    metrics["bounds.evaluate.repeat_ratio"] = _ratio(
        counts["bounds.evaluate.repeats"], counts["bounds.evaluate.count"])
    metrics["verify.suite.verdict_ratio"] = _ratio(
        counts["verify.suite.verdicts"], counts["verify.suite.checks"])
    metrics["gamefile.input_bytes"] = counts["gamefile.input_bytes"] / window
    metrics["cli.output_bytes"] = counts["cli.output_bytes"] / window
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when nothing was counted."""
    return part / whole if whole else 0.0
