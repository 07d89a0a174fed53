"""In-memory span tracer installed around covercalc's public callables.

The tracer lives entirely in the benchmark: ``install`` replaces every public
function and method of the covercalc modules with a wrapper that records a
span, and rebinds every module attribute that referred to the original
(``engine`` imports ``h1_order``, ``cycle_basis`` and others by name, so
patching only the defining module would miss those calls). A span is
``[name, start, end, parent, extra, job, probe, returned]``; ``extra`` is the
tracer's own bookkeeping time at the end of the span, excluded from every
self time, and ``returned`` is False when the call raised.

``LAYERS`` maps each per-layer metric prefix to the spans it sums, the
workloads that must call it and the workloads where its share must stay
near zero. ``layer_metrics`` turns the worker's span summary into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import types

# methods that are dunders but real arithmetic entry points
_ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__"}

_L = "laurent.LaurentPoly."
LAYERS = {
    # prefix: (span names, workloads that call it, workloads where it stays ~0)
    "laurent.resultant": ((_L + "resultant_with_cyclotomic",), ("h1-sweep",), ("lmo-window",)),
    "laurent.mul": ((_L + "__mul__",), ("h1-sweep", "lmo-window", "diagram-mix"), ()),
    "laurent.pow": ((_L + "__pow__",), ("h1-sweep", "lmo-window"), ()),
    "laurent.addsub": ((_L + "__add__", _L + "__sub__", _L + "__neg__"), ("lmo-window", "diagram-mix"), ()),
    "laurent.root_sum": ((_L + "root_of_unity_sum",), ("lmo-window",), ("h1-sweep",)),
    "laurent.indicator_sum": ((_L + "modp_indicator_sum",), ("diagram-mix",), ("h1-sweep",)),
    "laurent.parse": ((_L + "from_json_dict",), ("h1-sweep", "diagram-mix"), ("h1-sweep",)),
    "knots.h1": (("knots.h1_order",), ("h1-sweep", "diagram-mix", "cli-mix"), ("lmo-window",)),
    "knots.wheel": (("knots.wheel_knot",), ("h1-sweep", "cli-mix"), ("lmo-window",)),
    "knots.parse": (("knots.KnotDescriptor.from_json_dict",), ("h1-sweep", "diagram-mix", "cli-mix"), ("lmo-window",)),
    "diagrams.parse": (("diagrams.DecoratedDiagram.from_json_dict",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window")),
    "diagrams.validate": (
        ("diagrams.validate_complete", "diagrams.require_valid", "diagrams.surplus"),
        ("diagram-mix", "cli-mix"),
        ("h1-sweep", "lmo-window"),
    ),
    "diagrams.cycle_basis": (("diagrams.cycle_basis",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window")),
    "diagrams.winding": (("diagrams.cycle_winding_affine",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window")),
    "diagrams.sawn": (
        ("diagrams.sawn_edge_graph", "diagrams.is_theta_graph"),
        ("diagram-mix", "cli-mix"),
        ("h1-sweep", "lmo-window"),
    ),
    "lifts.solve": (("lifts.solve",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window", "cli-mix")),
    "signs.comparison": (("signs.comparison_sign",), ("diagram-mix",), ("h1-sweep", "lmo-window", "cli-mix")),
    "engine.multiplier": (("engine.multiplier",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window")),
    "engine.cwl": (("engine.cwl_delta",), ("diagram-mix", "cli-mix"), ("h1-sweep", "lmo-window")),
    "engine.lmo": (("engine.lmo_leading_multiplier",), ("lmo-window", "cli-mix"), ("h1-sweep", "diagram-mix")),
    "engine.window": (("engine.window_nonzero",), ("lmo-window",), ("h1-sweep", "diagram-mix", "cli-mix")),
    "cli.main": (("cli.main",), ("cli-mix",), ()),
}
NEAR_ZERO_SHARE = 0.05  # an "~0 on" layer may take at most this share of the traced wall time

CLI_SUBCOMMANDS = ("h1", "wheel-table", "cwl", "lift", "window")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("laurent.resultant.calls", "count", "lower"),
    ("laurent.resultant.self_s", "s", "lower"),
    ("laurent.resultant.p_cubed", "count", "lower"),
    ("laurent.resultant.p_exponent", "1", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.mul.max_coef_bits", "bits", "lower"),
    ("laurent.pow.calls", "count", "lower"),
    ("laurent.pow.self_s", "s", "lower"),
    ("laurent.addsub.self_s", "s", "lower"),
    ("laurent.root_sum.self_s", "s", "lower"),
    ("laurent.indicator_sum.self_s", "s", "lower"),
    ("laurent.parse.self_s", "s", "lower"),
    ("knots.h1.calls", "count", "lower"),
    ("knots.h1.self_s", "s", "lower"),
    ("knots.wheel.self_s", "s", "lower"),
    ("knots.parse.self_s", "s", "lower"),
    ("diagrams.parse.self_s", "s", "lower"),
    ("diagrams.validate.self_s", "s", "lower"),
    ("diagrams.cycle_basis.self_s", "s", "lower"),
    ("diagrams.winding.self_s", "s", "lower"),
    ("diagrams.sawn.self_s", "s", "lower"),
    ("lifts.solve.calls", "count", "lower"),
    ("lifts.solve.self_s", "s", "lower"),
    ("lifts.admissible_ratio", "ratio", "higher"),
    ("signs.comparison.calls", "count", "lower"),
    ("signs.comparison.self_s", "s", "lower"),
    ("engine.multiplier.calls", "count", "lower"),
    ("engine.multiplier.self_s", "s", "lower"),
    ("engine.enum_states", "count", "lower"),
    ("engine.ring_size", "count", "lower"),
    ("engine.admissible_state_ratio", "ratio", "higher"),
    ("engine.cwl.self_s", "s", "lower"),
    ("engine.lmo.calls", "count", "lower"),
    ("engine.lmo.self_s", "s", "lower"),
    ("engine.lmo.distinct_l_ratio", "ratio", "higher"),
    ("engine.lmo.l_exponent", "1", "lower"),
    ("engine.window.calls", "count", "lower"),
    ("engine.window.rows_per_call", "1", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
] + [(f"cli.{c}.ms", "ms", "lower") for c in CLI_SUBCOMMANDS] + [
    ("cli.exit_code_mismatch", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.check_misses", "count", "lower"),
]


def _size(poly) -> int:
    terms = getattr(poly, "terms", poly)
    return len(terms) if hasattr(terms, "__len__") else 0


def _mul_probe(args, result):
    coefs = getattr(result, "terms", {}).values()
    return (_size(args[0]) * _size(args[1]), max((abs(c).bit_length() for c in coefs), default=0))


# span name -> function of (args, result) whose value is stored with the span
PROBES = {
    _L + "__mul__": _mul_probe,
    _L + "resultant_with_cyclotomic": lambda args, result: args[1],
    "engine.lmo_leading_multiplier": lambda args, result: args[0],
    "lifts.solve": lambda args, result: result is not None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.names: set[str] = set()
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, self.job, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[7] = True
            if probe is not None:
                span[6] = probe(args, result)
                done = clock()
                span[4] = done - span[2]
                span[2] = done
            return result

        return traced

    def install(self, package: str = "covercalc") -> None:
        """Wrap every public callable of the package's loaded modules, at every binding."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrapped = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1:] or package
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _ARITHMETIC:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(name, obj.__func__)))

    def _set(self, target, attr, value) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """What the parent needs to compute per-layer metrics, without raw spans."""
        own = self_times(self.spans)
        by_name: dict[str, list] = {}
        for span, s in zip(self.spans, own):
            entry = by_name.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += s
        spans = self.spans

        def picked(name):  # the calls of one callable that returned
            return [i for i, span in enumerate(spans) if span[0] == name and span[7]]

        mul = [spans[i][6] for i in picked(_L + "__mul__")]
        seen_l: set = set()
        lmo = []
        for i in picked("engine.lmo_leading_multiplier"):
            l = spans[i][6]
            parent = spans[i][3]
            in_window = parent >= 0 and spans[parent][0] == "engine.window_nonzero"
            lmo.append([l, spans[i][2] - spans[i][1] - spans[i][4], l not in seen_l, in_window])
            seen_l.add(l)
        return {
            "by_name": by_name,
            "resultant": [[spans[i][6], own[i]] for i in picked(_L + "resultant_with_cyclotomic")],
            "mul_term_pairs": sum(m[0] for m in mul),
            "mul_max_bits": max((m[1] for m in mul), default=0),
            "lmo": lmo,
            "solve": [spans[i][6] for i in picked("lifts.solve")],
            "multiplier_jobs": [spans[i][5] for i in picked("engine.multiplier")],
        }


def self_times(spans: list[list]) -> list[float]:
    """Duration minus bookkeeping minus the intervals of direct children, per span."""
    own = [span[2] - span[1] - span[4] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def fit_exponent(points) -> float:
    """Least-squares slope of log(y) on log(x); 0 when fewer than two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    xs = {x for x, _ in pts}
    if len(xs) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def layer_times(summary: dict) -> dict:
    """Per-layer self seconds and call counts from a span summary."""
    by_name = summary["by_name"]
    out = {}
    for prefix, (names, _, _) in LAYERS.items():
        out[prefix + ".calls"] = sum(by_name.get(n, (0, 0.0))[0] for n in names)
        out[prefix + ".self_s"] = sum(by_name.get(n, (0, 0.0))[1] for n in names)
    return out


def layer_metrics(summary: dict, job_counts) -> dict:
    """Per-layer metrics of one traced pass (cli.* and trace.* are filled by the caller).

    ``job_counts(job_index)`` gives (grouped states, ring size, admissible
    states, all states) for a multiplier call made while that job ran.
    """
    t = layer_times(summary)
    m = {name: t[name] for name, _, _ in PER_LAYER if name in t}
    res = summary["resultant"]
    m["laurent.resultant.p_cubed"] = sum(p**3 for p, _ in res)
    m["laurent.resultant.p_exponent"] = fit_exponent([(p, s) for p, s in res if p >= 8])
    m["laurent.mul.term_pairs"] = summary["mul_term_pairs"]
    m["laurent.mul.max_coef_bits"] = summary["mul_max_bits"]
    solves = summary["solve"]
    m["lifts.admissible_ratio"] = sum(solves) / len(solves) if solves else 0.0
    counts = [job_counts(j) for j in summary["multiplier_jobs"]]
    m["engine.enum_states"] = sum(c[0] for c in counts)
    m["engine.ring_size"] = sum(c[1] for c in counts)
    all_states = sum(c[3] for c in counts)
    m["engine.admissible_state_ratio"] = sum(c[2] for c in counts) / all_states if all_states else 0.0
    lmo = summary["lmo"]
    m["engine.lmo.distinct_l_ratio"] = len({l for l, *_ in lmo}) / len(lmo) if lmo else 0.0
    m["engine.lmo.l_exponent"] = fit_exponent([(l, d) for l, d, first, _ in lmo if first and l >= 16])
    windows = t["engine.window.calls"]
    m["engine.window.rows_per_call"] = sum(1 for *_, w in lmo if w) / windows if windows else 0.0
    return m


def table_checks(workload: str, summary: dict, wall_s: float) -> list[str]:
    """Failures of the layer table: uncalled layers and "~0 on" layers that are not small."""
    t = layer_times(summary)
    misses = []
    for prefix, (names, exercised, flat) in LAYERS.items():
        if workload in exercised and t[prefix + ".calls"] == 0:
            misses.append(f"{prefix}: no calls on {workload}; a binding site was missed")
        share = t[prefix + ".self_s"] / wall_s if wall_s else 0.0
        if workload in flat and share > NEAR_ZERO_SHARE:
            misses.append(f"{prefix}: {share:.1%} of wall on {workload}, expected ~0")
    return misses


def predictions(workload: str, m: dict, wall_s: float, cli_p50_ms: float = 0.0) -> list[tuple[str, float]]:
    """(claim, share) pairs from the layer table; each share should exceed 0.5."""
    def share(*prefixes):
        return sum(m[p + ".self_s"] for p in prefixes) / wall_s if wall_s else 0.0

    if workload == "h1-sweep":
        return [("laurent.resultant self / wall", share("laurent.resultant"))]
    if workload == "lmo-window":
        return [("laurent.pow + laurent.mul + engine.lmo self / wall", share("laurent.pow", "laurent.mul", "engine.lmo"))]
    if workload == "diagram-mix":
        parts = ("engine.multiplier", "diagrams.parse", "diagrams.validate", "diagrams.cycle_basis",
                 "diagrams.winding", "diagrams.sawn", "laurent.mul", "laurent.indicator_sum")
        return [("engine.multiplier + diagrams + laurent.mul/indicator_sum self / wall", share(*parts))]
    start = m["cli.interp_start_ms"] + m["cli.import_ms"]
    return [("(interpreter start + import) / subprocess job_p50_ms", start / cli_p50_ms if cli_p50_ms else 0.0)]
