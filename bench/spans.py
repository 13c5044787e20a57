"""Span tracing of hbepp-link from outside the package.

``Tracer.install`` replaces each traced public function at every attribute
it is reachable through: its home module, the package root, and every
module that bound it by ``from``-import (``keyrate``, ``postprocess`` and
``cli`` bind ``outcome_probabilities`` that way; ``oracle_probabilities``
looks its five stages up in ``fock``'s own globals). Spans stay in memory
as ``[name, start_ns, end_ns, parent, op]`` and are written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

PACKAGE = "hbepp_link"

#: Traced functions per layer (the package modules). ``params`` and
#: ``patterns`` are value types; their cost lands in their callers' self time.
TRACED = {
    "analytic": ("outcome_probabilities",),
    "postprocess": ("chsh", "coincidences"),
    "keyrate": ("passive_performance", "optimize_gain", "qber_and_sift"),
    "fock": (
        "oracle_probabilities",
        "build_state",
        "rotate_modes",
        "photon_number_distribution",
        "apply_loss",
        "click_probabilities",
    ),
    "config": ("parse_config",),
    "cli": ("run_subcommand",),
}

FOCK_STAGES = {
    "build": "fock.build_state",
    "rotate": "fock.rotate_modes",
    "square": "fock.photon_number_distribution",
    "thin": "fock.apply_loss",
    "readout": "fock.click_probabilities",
}

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("analytic.tables", "count"),
    ("analytic.tables_per_op", "count/op"),
    ("analytic.self_s", "s"),
    ("analytic.us_per_table", "us"),
    ("postprocess.folds", "count"),
    ("postprocess.self_s", "s"),
    ("keyrate.optimize_calls", "count"),
    ("keyrate.tables_per_optimize", "count/call"),
    ("keyrate.scan_tables", "count/call"),
    ("keyrate.refine_tables", "count/call"),
    ("keyrate.golden_iterations", "count/call"),
    ("keyrate.optimize_s", "s"),
    ("keyrate.self_s", "s"),
    ("fock.points", "count"),
    ("fock.build_s", "s"),
    ("fock.rotate_s", "s"),
    ("fock.square_s", "s"),
    ("fock.thin_s", "s"),
    ("fock.readout_s", "s"),
    ("fock.thin_flops_computed", "flop/point"),
    ("fock.dist_bytes_computed", "B/point"),
    ("fock.thin_gflops", "GFLOP/s"),
    ("config.parse_calls", "count"),
    ("config.parse_s", "s"),
    ("hbepp_link.import_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _optimize_note(signature: inspect.Signature) -> Callable[..., Any]:
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["grid_points"], result.iterations, result.found

    return note


def _thin_note(args, kwargs, result):
    dist = args[0] if args else kwargs["dist"]
    return dist.probs.shape


class Tracer:
    """Spans of the traced functions; ``op`` is the id of the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, Any] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                note = None
                if fname == "optimize_gain":
                    note = _optimize_note(inspect.signature(original))
                elif fname == "apply_loss":
                    note = _thin_note
                wrapper = self._wrap(f"{layer}.{fname}", original, note)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack, notes = self.spans, self._stack, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, extra: dict[str, Any]) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as handle:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": names,
                    "spans": [[code[s[0]], *s[1:]] for s in self.spans],
                },
                handle,
            )


def layer_metrics(tracer: Tracer, ops: int, import_s: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced run."""
    spans = tracer.spans
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    count: Counter[str] = Counter()
    incl: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    # Parents are appended before their children, so one forward pass gives
    # each span its nearest optimize_gain ancestor.
    in_optimize = [False] * len(spans)
    optimize_tables = 0
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        count[name] += 1
        incl[name] += dur[i]
        self_s[name.split(".")[0]] += dur[i] - child[i]
        in_optimize[i] = name == "keyrate.optimize_gain" or (parent >= 0 and in_optimize[parent])
        if name == "analytic.outcome_probabilities" and in_optimize[i]:
            optimize_tables += 1

    opt_notes = [n for i, n in tracer.notes.items() if spans[i][0] == "keyrate.optimize_gain"]
    opt_calls = len(opt_notes)
    scan = sum(grid for grid, _, _ in opt_notes)
    iterations = sum(it for _, it, _ in opt_notes)
    # Golden-section refinement: two interior points, one per iteration,
    # and the final evaluation at the bracket midpoint.
    refine = sum(it + 3 for _, it, found in opt_notes if found)

    points = count["fock.oracle_probabilities"]
    thin_flops = 0
    dist_bytes = 0
    for i, n in tracer.notes.items():
        if spans[i][0] == "fock.apply_loss":
            size = 1
            for extent in n:
                size *= extent
            # four tensordot contractions, each 2*n multiply-adds per output
            thin_flops += sum(2 * size * extent for extent in n)
            # the squared distribution plus the four thinning outputs
            dist_bytes += 5 * 8 * size
    tables = count["analytic.outcome_probabilities"]
    stage = {key: incl[name] for key, name in FOCK_STAGES.items()}

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    return {
        "analytic.tables": tables,
        "analytic.tables_per_op": per(tables, ops),
        "analytic.self_s": self_s["analytic"],
        "analytic.us_per_table": per(self_s["analytic"] * 1e6, tables),
        "postprocess.folds": count["postprocess.coincidences"],
        "postprocess.self_s": self_s["postprocess"],
        "keyrate.optimize_calls": opt_calls,
        "keyrate.tables_per_optimize": per(optimize_tables, opt_calls),
        "keyrate.scan_tables": per(scan, opt_calls),
        "keyrate.refine_tables": per(refine, opt_calls),
        "keyrate.golden_iterations": per(iterations, opt_calls),
        "keyrate.optimize_s": incl["keyrate.optimize_gain"],
        "keyrate.self_s": self_s["keyrate"],
        "fock.points": points,
        **{f"fock.{key}_s": value for key, value in stage.items()},
        "fock.thin_flops_computed": per(thin_flops, points),
        "fock.dist_bytes_computed": per(dist_bytes, points),
        "fock.thin_gflops": thin_flops * 1e-9 / stage["thin"] if stage["thin"] else 0.0,
        "config.parse_calls": count["config.parse_config"],
        "config.parse_s": incl["config.parse_config"],
        "hbepp_link.import_s": import_s,
        "cli.self_s": self_s["cli"],
        "trace.overhead_ratio": overhead_ratio,
    }
