"""Per-layer spans and counts, recorded by wrappers installed from outside.

``Tracer.begin_op`` replaces the public functions of every eulercong module,
and the arithmetic methods of ``Poly``, ``Series``, ``PolySeries`` and
``ShiftOperator``, with wrappers that record a span (name, start, end, parent
span, op id) per call. Every binding of the original is replaced, including
the ``from ... import`` copies held by other modules, so no call slips past;
``Tracer.end_op`` puts the originals back. A listed module, class or method
that the package no longer has is skipped and named on stderr; the metrics
that sum over it then read 0.
Spans are kept in flat arrays while the workload runs and turned into layer
metrics, and written out, at the end. A layer's self time is the duration of
its spans minus the time covered by their wrapped children.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from functools import wraps

LAYERS = ("polynomial", "series", "eulerian", "bernoulli", "shift", "congruence", "audit", "cli")

# Methods wrapped per class; accessors and the data-model methods (__eq__,
# __hash__) stay unwrapped. Poly.__init__ is counted, not spanned: it runs
# for every intermediate value and a span each would dwarf the work.
METHODS = {
    ("polynomial", "Poly"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__pow__", "__call__",
    ),
    ("series", "Series"): ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "truncate"),
    ("series", "PolySeries"): ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "truncate"),
    ("shift", "ShiftOperator"): ("apply", "__add__", "__sub__", "__mul__", "__rmul__", "__pow__"),
}

# cli.main alone: its self time is argument parsing, JSON and printing.
CLI_FUNCTIONS = ("main",)

UNITS = {
    "calls": "count", "self_s": "s", "errors": "count", "unique_ratio": "ratio",
    "coeff_products": "count", "coeff_ops": "count", "shifts": "count",
    "max_bits": "bits", "defects_per_solve": "ratio", "spans": "count",
}

# Metric group -> the spans it sums over.
GROUPS = {
    "polynomial.mul": ("polynomial.Poly.__mul__",),
    "polynomial.pow": ("polynomial.Poly.__pow__",),
    "polynomial.taylor_shift": ("polynomial.taylor_shift",),
    "polynomial.remainder_mod_power": ("polynomial.remainder_mod_power",),
    "polynomial.text": ("polynomial.poly_text", "polynomial.format_poly"),
    "series.t_divide": ("series.series_t_divide",),
    "series.mul": ("series.Series.__mul__", "series.PolySeries.__mul__"),
    "series.expand_quotient": ("series.expand_quotient",),
    "eulerian.at_minus_one": ("eulerian.eulerian_at_minus_one",),
    "bernoulli.poly": ("bernoulli.bernoulli_poly",),
    "bernoulli.zeta_negative": ("bernoulli.zeta_negative",),
    "shift.apply": ("shift.ShiftOperator.apply",),
    "congruence.defect": ("congruence.congruence_defect",),
    "congruence.report": ("congruence.congruence_report",),
    "congruence.solve": ("congruence.solve_characterization",),
    "audit.run_audit": ("audit.run_audit",),
    "cli.main": ("cli.main",),
}


def _max_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self, package: str = "eulercong"):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.pow_keys: set = set()
        self.solve_keys: set = set()
        self.bindings = self._bind(package)

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Install the wrappers; spans recorded from here on carry ``op_id``."""
        self.op = op_id
        for target, attr, _, wrapper in self.bindings:
            setattr(target, attr, wrapper)

    def end_op(self) -> None:
        """Restore the originals and close the op's per-op counts."""
        for target, attr, original, _ in self.bindings:
            setattr(target, attr, original)
        self.counts["pow.unique"] += len(self.pow_keys)
        self.counts["solve.unique"] += len(self.solve_keys)
        self.pow_keys.clear()
        self.solve_keys.clear()

    def _wrap(self, layer: str, name: str, fn, before=None, after=None):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        errors, clock, tracer = self.errors, time.perf_counter, self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                errors[layer] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        """Exact work counts taken at the span boundary, from arguments or result."""
        counts = self.counts
        if name == "polynomial.Poly.__mul__":
            def before(args, kwargs):
                a, b = args
                if type(b) is type(a):
                    counts["mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)
            return before, None
        if name == "polynomial.Poly.__pow__":
            return (lambda args, kwargs: self.pow_keys.add((args[0].coeffs, args[1]))), None
        if name == "polynomial.taylor_shift":
            def before(args, kwargs):
                d = args[0].degree
                counts["taylor_shift.coeff_ops"] += d * (d + 1) // 2
            return before, None
        if name == "shift.ShiftOperator.apply":
            def before(args, kwargs):
                counts["apply.shifts"] += sum(1 for c in args[0].symbol.coeffs if c)
            return before, None
        if name == "congruence.congruence_defect":
            def after(result):
                counts["defect.max_bits"] = max(counts["defect.max_bits"], _max_bits(result))
            return None, after
        if name == "congruence.solve_characterization":
            return (lambda args, kwargs: self.solve_keys.add((args, tuple(sorted(kwargs.items()))))), None
        return None, None

    def _bind(self, package: str) -> list:
        """Wrap every layer's public callables; list each binding to replace."""
        modules, missing = {}, []
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                missing.append(f"{package}.{layer}")
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(layer, name, obj, *self._hooks(name))
        bindings = []
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            if not isinstance(cls, type):
                missing.append(f"{layer}.{cls_name}")
                continue
            for attr in methods:
                obj = cls.__dict__.get(attr)
                if obj is None:
                    missing.append(f"{layer}.{cls_name}.{attr}")
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{cls_name}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(layer, name, obj, *self._hooks(name))
                bindings.append((cls, attr, obj, wrappers[id(obj)]))
        for namespace in [importlib.import_module(package), *modules.values()]:
            for attr, obj in vars(namespace).items():
                if id(obj) in wrappers:
                    bindings.append((namespace, attr, obj, wrappers[id(obj)]))

        poly = getattr(modules.get("polynomial"), "Poly", None)
        if isinstance(poly, type):
            init, counts = poly.__init__, self.counts

            def counted_init(self, *args, **kwargs):
                counts["init.calls"] += 1
                init(self, *args, **kwargs)

            bindings.append((poly, "__init__", init, counted_init))
        if missing:
            print(f"tracing: not found, so not traced: {', '.join(missing)}", file=sys.stderr)
        return bindings

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        id_name = {v: k for k, v in self.name_ids.items()}
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = id_name[names[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]

        solve_id = self.name_ids.get("congruence.solve_characterization")
        defects_in_solve = 0
        for i in range(n):
            if id_name[names[i]] == "congruence.congruence_defect":
                p = parents[i]
                while p >= 0 and names[p] != solve_id:
                    p = parents[p]
                defects_in_solve += p >= 0

        m: dict[str, float] = {}
        for group, members in GROUPS.items():
            m[f"{group}.calls"] = sum(calls[s] for s in members)
            m[f"{group}.self_s"] = sum(self_s[s] for s in members)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(t for s, t in self_s.items() if s.split(".")[0] == layer)
            m[f"{layer}.errors"] = self.errors[layer]
        c = self.counts
        m["polynomial.mul.coeff_products"] = c["mul.coeff_products"]
        m["polynomial.pow.unique_ratio"] = _ratio(c["pow.unique"], m["polynomial.pow.calls"])
        m["polynomial.taylor_shift.coeff_ops"] = c["taylor_shift.coeff_ops"]
        m["polynomial.init.calls"] = c["init.calls"]
        m["shift.apply.shifts"] = c["apply.shifts"]
        m["congruence.defect.max_bits"] = c["defect.max_bits"]
        m["congruence.solve.unique_ratio"] = _ratio(c["solve.unique"], m["congruence.solve.calls"])
        m["congruence.defects_per_solve"] = _ratio(defects_in_solve, m["congruence.solve.calls"])
        m["trace.spans"] = n
        return {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in m.items()}

    def write_spans(self, path) -> None:
        """Write every span as CSV: op, span id, parent id, name, start, end (s)."""
        id_name = {v: k for k, v in self.name_ids.items()}
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("op", "span", "parent", "name", "start_s", "end_s"))
            for i in range(len(self.span_start)):
                out.writerow((
                    self.span_op[i], i, self.span_parent[i], id_name[self.span_name[i]],
                    f"{self.span_start[i] - t0:.9f}", f"{self.span_end[i] - t0:.9f}",
                ))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
