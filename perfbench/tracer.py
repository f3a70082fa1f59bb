"""Outside-in tracer: spans and counters around the engine's public functions.

The tracer changes no engine code.  ``install`` rebinds each traced function
in every ``dworkcohom`` module that holds it (a module that did
``from .forms import twisted_column`` has its own binding), and replaces the
traced methods on their classes.  A span's self time is its duration minus
the durations of the traced spans it directly encloses.  Work that the
tracer does to count (distinct inputs, result sizes) is charged to neither
the span nor its parent.

Workers load this module only for a traced pass: the untraced passes that
give the end-to-end numbers never do.
"""

from __future__ import annotations

import functools
import sys
import weakref
from statistics import median
from time import perf_counter

FUNCTIONS = (
    ("forms", "twisted_column"),
    ("forms", "strand_basis_at_degree"),
    ("matrices", "integerize_column"),
    ("matrices", "rank_of_columns"),
    ("linalg", "stabilized_cohomology"),
    ("griffiths", "jacobian_hilbert"),
    ("griffiths", "macaulay_rank"),
    ("poly", "monomial_basis"),
    ("fields", "poly_gcd"),
    ("cli", "parse_polynomial"),
    ("cli", "run_job"),
    ("dwork", "compare_smooth_paths"),
    ("dwork", "primitive_dwork_cohomology"),
    ("dwork", "strand_decomposition"),
    ("dwork", "affine_twisted_cohomology"),
)

METHODS = (
    ("matrices", "IntRankAccumulator", "add_column"),
    ("matrices", "FieldRankAccumulator", "add_column"),
    ("gaussmanin", "GriffithsDworkReducer", "__init__"),
    ("gaussmanin", "GriffithsDworkReducer", "reduce"),
)

# The per-layer metrics of a traced pass: (name, unit).  Counts repeat
# exactly from pass to pass; times and trace.overhead do not.
METRICS = (
    ("forms.twisted_column.calls", "count"),
    ("forms.twisted_column.self_s", "s"),
    ("forms.twisted_column.nnz", "count"),
    ("forms.twisted_column.useful_ratio", "ratio"),
    ("matrices.integerize_column.calls", "count"),
    ("matrices.integerize_column.self_s", "s"),
    ("matrices.IntRankAccumulator.add_column.calls", "count"),
    ("matrices.IntRankAccumulator.add_column.self_s", "s"),
    ("matrices.IntRankAccumulator.add_column.yield", "ratio"),
    ("matrices.IntRankAccumulator.stored_nnz", "count"),
    ("matrices.IntRankAccumulator.max_bits", "bits"),
    ("matrices.FieldRankAccumulator.add_column.calls", "count"),
    ("matrices.FieldRankAccumulator.add_column.self_s", "s"),
    ("matrices.rank_of_columns.calls", "count"),
    ("matrices.rank_of_columns.self_s", "s"),
    ("linalg.stabilized_cohomology.calls", "count"),
    ("linalg.stabilized_cohomology.s", "s"),
    ("linalg.stabilized_cohomology.self_s", "s"),
    ("linalg.stabilized_cohomology.windows", "count"),
    ("griffiths.jacobian_hilbert.calls", "count"),
    ("griffiths.jacobian_hilbert.s", "s"),
    ("griffiths.jacobian_hilbert.useful_ratio", "ratio"),
    ("griffiths.macaulay_rank.calls", "count"),
    ("griffiths.macaulay_rank.self_s", "s"),
    ("gaussmanin.GriffithsDworkReducer.init_s", "s"),
    ("gaussmanin.GriffithsDworkReducer.reduce.calls", "count"),
    ("gaussmanin.GriffithsDworkReducer.reduce.self_s", "s"),
    ("fields.poly_gcd.calls", "count"),
    ("fields.poly_gcd.self_s", "s"),
    ("poly.monomial_basis.calls", "count"),
    ("poly.monomial_basis.self_s", "s"),
    ("forms.strand_basis_at_degree.elements", "count"),
    ("forms.strand_basis_at_degree.self_s", "s"),
    ("cli.parse_polynomial.self_s", "s"),
    ("cli.run_job.self_s", "s"),
    ("dwork.compare_smooth_paths.s", "s"),
    ("dwork.primitive_dwork_cohomology.s", "s"),
    ("dwork.strand_decomposition.s", "s"),
    ("dwork.affine_twisted_cohomology.s", "s"),
    ("trace.overhead", "ratio"),
)
UNITS = dict(METRICS)


class Span:
    """Totals of one traced function: calls, inclusive and self seconds."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.stack = [0.0]          # enclosed-span seconds, one per open span
        self.twisted_inputs = set()
        self.twisted_nnz = 0
        self.hilbert_inputs = set()
        self.basis_elements = 0
        self.rank_grew = 0
        self.windows = 0
        self.accumulators = weakref.WeakSet()

    # ---- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        span = self.spans[name] = Span()
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - inner
                stack[-1] += elapsed
            if count is not None:
                count(args, result)
                stack[-1] += perf_counter() - start - elapsed
            return result

        return traced

    def install(self):
        """Rebind every traced function and method; call once per process."""
        import dworkcohom
        from dworkcohom import matrices
        counters = {
            "forms.twisted_column": self._count_twisted,
            "forms.strand_basis_at_degree": self._count_basis,
            "griffiths.jacobian_hilbert": self._count_hilbert,
            "linalg.stabilized_cohomology": self._count_windows,
            "matrices.IntRankAccumulator.add_column": self._count_growth,
        }
        modules = [m for k, m in sys.modules.items()
                   if k == "dworkcohom" or k.startswith("dworkcohom.")]
        for mod_name, attr in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            original = getattr(getattr(dworkcohom, mod_name), attr)
            traced = self._wrap(name, original, counters.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for mod_name, cls_name, attr in METHODS:
            name = f"{mod_name}.{cls_name}.{attr}"
            cls = getattr(getattr(dworkcohom, mod_name), cls_name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr),
                                          counters.get(name)))
        accumulators = self.accumulators
        init = matrices.IntRankAccumulator.__init__

        def tracked_init(acc, *args, **kwargs):
            init(acc, *args, **kwargs)
            accumulators.add(acc)

        matrices.IntRankAccumulator.__init__ = tracked_init

    # ---- counters --------------------------------------------------------

    def _count_twisted(self, args, result):
        self.twisted_inputs.add(tuple(args))
        self.twisted_nnz += len(result)

    def _count_basis(self, args, result):
        self.basis_elements += len(result)

    def _count_hilbert(self, args, result):
        self.hilbert_inputs.add(args[0])

    def _count_windows(self, args, result):
        if result.certificate is not None:
            self.windows += len(result.certificate.history)

    def _count_growth(self, args, result):
        self.rank_grew += bool(result)

    # ---- results ---------------------------------------------------------

    def counts(self) -> dict:
        """Metrics of this pass that must repeat exactly, and its times."""
        s = self.spans

        def ratio(num, den):
            return num / den if den else 0.0

        stored = [col for acc in self.accumulators
                  for col in acc.pivcol.values()]
        add = s["matrices.IntRankAccumulator.add_column"]
        out = {
            "forms.twisted_column.nnz": self.twisted_nnz,
            "forms.twisted_column.useful_ratio": ratio(
                len(self.twisted_inputs), s["forms.twisted_column"].calls),
            "matrices.IntRankAccumulator.add_column.yield": ratio(
                self.rank_grew, add.calls),
            "matrices.IntRankAccumulator.stored_nnz": sum(map(len, stored)),
            "matrices.IntRankAccumulator.max_bits": max(
                (abs(v).bit_length() for col in stored for v in col.values()),
                default=0),
            "linalg.stabilized_cohomology.windows": self.windows,
            "griffiths.jacobian_hilbert.useful_ratio": ratio(
                len(self.hilbert_inputs), s["griffiths.jacobian_hilbert"].calls),
            "forms.strand_basis_at_degree.elements": self.basis_elements,
            "gaussmanin.GriffithsDworkReducer.init_s":
                s["gaussmanin.GriffithsDworkReducer.__init__"].total,
        }
        for name, span in s.items():
            for suffix, value in (("calls", span.calls), ("s", span.total),
                                  ("self_s", span.self_time)):
                key = f"{name}.{suffix}"
                if key in UNITS:
                    out[key] = value
        return out


def is_time(name: str) -> bool:
    return UNITS[name] == "s"


def combine(passes: list, untraced_walls: list, traced_walls: list) -> dict:
    """Per-layer metrics of a traced run from the counts of its traced passes.

    Times are medians over the passes; every other value is taken from the
    first pass (``mismatched`` lists those that differ between passes).
    """
    out = {}
    for name, _ in METRICS[:-1]:
        values = [p[name] for p in passes]
        out[name] = median(values) if is_time(name) else values[0]
    out["trace.overhead"] = median(traced_walls) / median(untraced_walls) - 1
    return out


def mismatched(passes: list) -> list:
    """Names of counts that did not repeat exactly across traced passes."""
    return [name for name, _ in METRICS[:-1] if not is_time(name)
            and any(p[name] != passes[0][name] for p in passes[1:])]
