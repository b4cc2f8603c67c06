"""Outside-in layer tracing of the umbralcalc package.

The package is not instrumented. While a `Tracer` is installed, every public
function and public method of each layer module is replaced by a timing
wrapper, both on its owner and in every module namespace (and module-level
dict, such as `harness.SUITES`) that imported it by name. `remove` puts the
originals back, so untraced passes run with nothing patched.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by its child spans (spans are strictly nested: one thread).
Spans of the hot leaf layers `psi` and `poly` only update per-function
counters; spans of the other layers are also kept as records in memory, up
to `MAX_SPAN_RECORDS`, and written out by `write_spans` after the run.

A few trivial accessors are left unwrapped because they are called millions
of times and do no arithmetic; their time is charged to the calling span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "psi",
    "poly",
    "series",
    "operators",
    "sequences",
    "spectral",
    "star",
    "integration",
    "harness",
    "cli",
)
LEAF_LAYERS = frozenset({"psi", "poly"})

UNWRAPPED = frozenset(
    {
        "poly.fr",
        "poly.Polynomial.coefficient",
        "poly.Polynomial.is_zero",
        "psi.AdmissibleSequence.n_psi",
        "operators.OperatorMatrix.column",
    }
)
# Private functions that still mark a layer boundary worth timing.
EXTRA_TARGETS = {"cli": ("_emit",)}
# Dunder methods that are Polynomial arithmetic and evaluation.
POLY_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale", "__call__")

# Packages whose module namespaces get the wrappers: the package itself, and
# the benchmark, whose calls into the package are timed too.
NAMESPACES = ("umbralcalc", "bench")

ROUTES = "sequences.closed_form_routes"
REALIZE = "operators.realize_delta_series"

MAX_SPAN_RECORDS = 200_000


def _targets():
    """(owner, attribute, original, key, layer) for everything to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"umbralcalc.{layer}")
        extra = EXTRA_TARGETS.get(layer, ())
        for name, obj in vars(module).items():
            public = not name.startswith("_") or name in extra
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and public:
                out.append((module, name, obj, f"{layer}.{name}", layer))
            elif (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not issubclass(obj, BaseException)
            ):
                for attr, value in vars(obj).items():
                    if attr.startswith("_") and attr not in POLY_ARITH:
                        continue
                    func = value.__func__ if isinstance(value, staticmethod) else value
                    if inspect.isfunction(func):
                        out.append((obj, attr, value, f"{layer}.{name}.{attr}", layer))
    return [t for t in out if t[3] not in UNWRAPPED]


class Tracer:
    """Installs timing wrappers; collects counters and span records.

    Spans are timed with `clock`, such as a SpeedSampler's work clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # key -> [calls, self_s, total_s]
        self.spans = []  # (span_id, parent_id, key, start, end, request)
        self.dropped_spans = 0
        self.request = None
        self.routes_active = 0
        self.realize_in_routes = 0
        self._stack = [[0.0, None]]  # frames: [child time, id of nearest recorded span]
        self._next_id = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, func, key, layer):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        if layer in LEAF_LAYERS:

            @functools.wraps(func)
            def leaf(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    stack[-1][0] += duration
                    stat[0] += 1
                    stat[1] += duration - frame[0]
                    stat[2] += duration

            return leaf

        is_routes, is_realize = key == ROUTES, key == REALIZE

        @functools.wraps(func)
        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            if is_routes:
                self.routes_active += 1
            elif is_realize and self.routes_active:
                self.realize_in_routes += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                stack[-1][0] += duration
                if is_routes:
                    self.routes_active -= 1
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                if len(self.spans) < MAX_SPAN_RECORDS:
                    self.spans.append((span_id, parent, key, start, end, self.request))
                else:
                    self.dropped_spans += 1

        return span

    # -- install / remove ---------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, attr, original, key, layer in _targets():
            func = original.__func__ if isinstance(original, staticmethod) else original
            wrapper = self._wrap(func, key, layer)
            replaced[id(func)] = wrapper
            value = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
            self._restore.append((owner, attr, original))
            setattr(owner, attr, value)
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".", 1)[0] not in NAMESPACES:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in replaced:
                            self._restore.append((value, k, v))
                            value[k] = replaced[id(v)]
        return self

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ------------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def total_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def layer_keys(self, layer: str) -> list:
        return [k for k in self.stats if k.split(".", 1)[0] == layer]

    def write_spans(self, path) -> None:
        """Span records as JSON lines, then one line of per-function counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, key, start, end, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": key,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {
                        "counters": {
                            k: {"calls": c, "self_s": s, "total_s": t}
                            for k, (c, s, t) in sorted(self.stats.items())
                        },
                        "dropped_spans": self.dropped_spans,
                    }
                )
                + "\n"
            )


# -- per-layer metrics ------------------------------------------------------------

SUITE_NAMES = (
    "ghw",
    "weyl",
    "leibnitz",
    "binomial",
    "routes",
    "detect",
    "sheffer",
    "expansion",
    "orthogonality",
    "spectral",
    "integration",
    "star",
    "qplane",
    "mutator",
    "factorization",
    "transport",
)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Times measured by the tracer are multiplied by `scale`."""
    t = tracer
    routes = t.calls(ROUTES)
    out = {
        "psi.binomial.calls": (t.calls("psi.AdmissibleSequence.binomial"), "count"),
        "psi.factorial.calls": (t.calls("psi.AdmissibleSequence.factorial"), "count"),
        "psi.falling_factorial.calls": (
            t.calls("psi.AdmissibleSequence.falling_factorial"),
            "count",
        ),
        "psi.self_s": (t.self_s(*t.layer_keys("psi")), "s"),
        "poly.arith.calls": (
            t.calls(*(f"poly.Polynomial.{m}" for m in POLY_ARITH)),
            "count",
        ),
        "poly.coordinates_in_table.calls": (t.calls("poly.coordinates_in_table"), "count"),
        "poly.self_s": (t.self_s(*t.layer_keys("poly")), "s"),
        "operators.apply.calls": (t.calls("operators.OperatorMatrix.apply"), "count"),
        "operators.compose.calls": (t.calls("operators.OperatorMatrix.compose"), "count"),
        "operators.realize_delta_series.calls": (t.calls(REALIZE), "count"),
        "operators.generalized_shift.calls": (t.calls("operators.generalized_shift"), "count"),
        "operators.self_s": (t.self_s(*t.layer_keys("operators")), "s"),
        "sequences.verify_binomial_type.self_s": (
            t.self_s("sequences.verify_binomial_type"),
            "s",
        ),
        "sequences.verify_sheffer_binomial.self_s": (
            t.self_s("sequences.verify_sheffer_binomial"),
            "s",
        ),
        "sequences.closed_form_routes.self_s": (t.self_s(ROUTES), "s"),
        "sequences.self_s": (t.self_s(*t.layer_keys("sequences")), "s"),
        "sequences.realize_per_route": (
            t.realize_in_routes / routes if routes else 0.0,
            "ratio",
        ),
        "series.calls": (t.calls(*t.layer_keys("series")), "count"),
        "series.self_s": (t.self_s(*t.layer_keys("series")), "s"),
        "spectral.self_s": (t.self_s(*t.layer_keys("spectral")), "s"),
        "star.self_s": (t.self_s(*t.layer_keys("star")), "s"),
        "integration.self_s": (t.self_s(*t.layer_keys("integration")), "s"),
    }
    for name in SUITE_NAMES:
        out[f"harness.suite.{name}.s"] = (t.total_s(f"harness.suite_{name}"), "s")
    out["cli.render_s"] = (
        t.total_s("harness.render_text", "harness.render_json", "cli._emit"),
        "s",
    )
    out = {k: (v * scale if u == "s" else v, u) for k, (v, u) in out.items()}
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out
