"""Span recording around the public functions of each monogenity module.

Each function is replaced, for the length of a traced run, at the name
its caller looks it up by: `ore` imports `ff_factor` by name, so the
span sits on `ore.ff_factor`, not on `residue.ff_factor`.  A name that a
later version of the package no longer has is skipped, and its metrics
read 0.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns


def _bits(rec, args, result):
    rec.add("zpoly.expansion_bits", sum(abs(c).bit_length() for a in result.coefficients for c in a))


def _points(rec, args, result):
    rec.add("polygon.points", len(result))


def _columns(rec, args, result):
    principal = args[0]
    if principal.sides:
        first, last = principal.span
        rec.add("polygon.index_columns", last - max(1, first) + 1)


def _ff_factor(rec, args, result):
    rec.add("residue.factor_calls", 1)
    if args[0][0].field.degree >= 2:
        rec.add("residue.ext_factor_calls", 1)


def _counter(metric):
    return lambda rec, args, result: rec.add(metric, 1)


# (module, attribute, span name, count hook); the span name's first part is the layer
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_format_rows", "cli.format_rows", None),
    ("cli", "classify", "classify.classify", None),
    ("classify", "pure_prime_analysis", "classify.prime_analysis", _counter("classify.prime_analyses")),
    ("ore", "analyze_prime", "ore.analyze_prime", None),
    ("ore", "phi_report", "ore.phi_report", _counter("ore.reports")),
    ("ore", "index_lower_bound", "ore.index_lower_bound", None),
    ("ore", "splitting_shape", "ore.splitting_shape", None),
    ("ore", "ff_factor", "residue.factor", _ff_factor),
    ("zpoly", "phi_expansion", "zpoly.expansion", _bits),
    ("zpoly", "pure_shift_expansion", "zpoly.expansion", _bits),
    ("polygon", "valued_points", "polygon.points", _points),
    ("polygon", "lower_convex_hull", "polygon.hull", None),
    ("polygon", "principal_part", "polygon.hull", None),
    ("polygon", "phi_index", "polygon.index", _columns),
    ("polygon", "residual_polynomial", "polygon.residual", None),
    ("fppoly", "factor", "fppoly.factor", None),
    ("fppoly", "is_irreducible", "fppoly.is_irreducible", _counter("fppoly.irreducible_checks")),
    ("intarith", "factorize", "intarith.factorize", _counter("intarith.factorize_calls")),
)
# called tens of times per field: counted, not timed
COUNTED = (("intarith", "is_prime"), ("zpoly", "is_prime"), ("cli", "is_prime"))
# one scan row: its spans belong to the row, not to the whole scan call
ROW = ("cli", "_scan_row")

INCLUSIVE_MS = {
    "zpoly.expansion": "zpoly.expansion_ms",
    "polygon.points": "polygon.points_ms",
    "polygon.hull": "polygon.hull_ms",
    "polygon.index": "polygon.index_ms",
    "polygon.residual": "polygon.residual_ms",
    "residue.factor": "residue.factor_ms",
    "fppoly.factor": "fppoly.factor_ms",
    "intarith.factorize": "intarith.factorize_ms",
}
SELF_MS = ("cli", "classify", "ore")


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index or -1, field id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field = None
        self.counts: dict = defaultdict(Counter)
        self.missing: set[str] = set()
        self._saved: list = []

    def add(self, metric: str, value) -> None:
        self.counts[self.field][metric] += value

    def _wrap(self, fn, name, hook, row=False):
        rec = self

        def traced(*args, **kwargs):
            outer = rec.field
            if row:
                rec.field = f"{outer}|{args!r}"
            idx = len(rec.spans)
            span = [name, 0, 0, rec.stack[-1] if rec.stack else -1, rec.field]
            rec.spans.append(span)
            rec.stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                rec.stack.pop()
                rec.field = outer
            if hook is not None:
                # the hook's own time is a child of the caller, so it is
                # not charged to the caller's self time
                t0 = perf_counter_ns()
                try:
                    hook(rec, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the function's signature or result type changed: its
                    # counts read 0 rather than failing the traced call
                    rec.missing.add(f"{name} counts")
                parent = rec.stack[-1] if rec.stack else -1
                rec.spans.append(["trace.count", t0, perf_counter_ns(), parent, rec.field])
            return result

        return traced

    def _count(self, fn):
        rec = self

        def counted(*args, **kwargs):
            rec.counts[rec.field]["intarith.is_prime_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module, attr, make):
        try:
            mod = importlib.import_module(f"monogenity.{module}")
        except ModuleNotFoundError:
            mod = None
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.add(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def __enter__(self):
        for module, attr, name, hook in WRAPS:
            self._replace(module, attr, lambda fn, n=name, h=hook: self._wrap(fn, n, h))
        for module, attr in COUNTED:
            self._replace(module, attr, self._count)
        self._replace(*ROW, lambda fn: self._wrap(fn, "cli.scan_row", None, row=True))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -----------------------------------------------------------------------

    def per_field(self) -> dict[str, Counter]:
        """Metric totals per field.

        A scan call's own spans and counts (argument handling, CSV
        formatting) are spread evenly over the rows of that call.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per: dict = defaultdict(Counter)
        for idx, (name, start, end, parent, field) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer in SELF_MS:
                per[field][f"{layer}.self_ms"] += (end - start - child[idx]) / 1e6
            metric = INCLUSIVE_MS.get(name)
            if metric and (parent < 0 or self.spans[parent][0] != name):
                per[field][metric] += (end - start) / 1e6
        for field, counts in self.counts.items():
            per[field].update(counts)
        rows = defaultdict(list)
        for field in per:
            if field is not None and "|" in field:
                rows[field.split("|")[0]].append(field)
        for call, members in rows.items():
            shared = per.pop(call, Counter())
            for metric, value in shared.items():
                for row in members:
                    per[row][metric] += value / len(members)
        per.pop(None, None)
        return per

    def medians(self, names) -> dict[str, float]:
        per = list(self.per_field().values())
        return {n: statistics.median(c.get(n, 0) for c in per) if per else 0.0 for n in names}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "field"],
                    "spans": self.spans,
                    "missing_wrap_targets": sorted(self.missing),
                },
                handle,
                separators=(",", ":"),
            )
