"""In-memory span recorder that wraps ncjoin's public functions from outside.

Nothing in the package is edited. Each traced function is replaced, at
every module attribute of ``ncjoin`` that binds it (``cli`` and
``joinings`` import names directly), by a wrapper that records a span:
layer name, start, end and the enclosing span. Some functions also hand
their return value to an extractor that reads solver counts from the
public result objects. Methods that are called very often are counted
only, without a span.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter

# Span layer name -> (module, attribute). One layer may list several
# functions; their spans are summed under the layer's name.
SPANNED = {
    "fileio.load_system": [("fileio", "load_system")],
    "algebra.validate_system": [("algebra", "validate_system")],
    "gns.gns_construct": [("gns", "gns_construct")],
    "gns.mirror_system": [("gns", "mirror_system")],
    "gns.classify_finite": [("gns", "classify_finite")],
    "gns.point_spectrum": [("gns", "point_spectrum")],
    "gns.cesaro_correlation": [("gns", "cesaro_correlation")],
    "joinings.build_tensor_context": [("joinings", "build_tensor_context")],
    "joinings.joining_residuals": [("joinings", "joining_residuals")],
    "joinings.find_joining": [("joinings", "find_joining")],
    "joinings.disjointness_test": [("joinings", "disjointness_test")],
    "joinings.constructors": [("joinings", "product_joining"),
                              ("joinings", "diagonal_state"),
                              ("joinings", "graph_joining")],
    "joinings.ornstein_ratio_scan": [("joinings", "ornstein_ratio_scan")],
    "joinings.cesaro_diagonal_average": [("joinings", "cesaro_diagonal_average")],
    "dual": [("dual", "classify_dual"),
             ("dual", "finite_orbit_subsystem"),
             ("dual", "correlation_series"),
             ("dual", "delta_n_eval"),
             ("dual", "ornstein_scan_dual"),
             ("dual", "opposite_group_joining")],
    "cli.run": [("cli", "run")],
}

# Counted without a span: (layer name, module, class, method).
COUNTED_METHODS = [
    ("algebra.Automorphism.compose", "algebra", "Automorphism", "compose"),
]


def _solve_info(result):
    _, report = result
    return {"iterations": report.iterations,
            "oracle_calls": report.oracle_calls,
            "ambiguous_calls": report.ambiguous_calls}


def _certificate_info(cert):
    return {"directions_scanned": cert.directions_scanned}


EXTRACTORS = {
    "joinings.find_joining": _solve_info,
    "joinings.disjointness_test": _certificate_info,
}


class Span:
    __slots__ = ("layer", "start", "end", "parent", "info")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.info = extract(result)
            return result

        return traced

    def _count(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import ncjoin

        modules = [ncjoin] + [
            importlib.import_module(f"ncjoin.{m.name}")
            for m in pkgutil.iter_modules(ncjoin.__path__)
        ]
        for layer, targets in SPANNED.items():
            for mod_name, attr in targets:
                original = getattr(importlib.import_module(f"ncjoin.{mod_name}"), attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        for layer, mod_name, cls_name, meth in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"ncjoin.{mod_name}"), cls_name)
            self._patch(cls, meth, self._count(layer, getattr(cls, meth)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        """Index of the next span, to slice out the spans of one task."""
        return len(self.spans)


def self_times(spans: list[Span], first: int, last: int) -> list[float]:
    """Self time of spans[first:last]: duration minus its children's durations."""
    out = [s.end - s.start for s in spans[first:last]]
    for k in range(first, last):
        parent = spans[k].parent
        if parent >= first:
            out[parent - first] -= spans[k].end - spans[k].start
    return out


def span_overhead_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op minus a bare no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("calibration", noop)
    best = []
    for fn in (noop, wrapped):
        runs = []
        for _ in range(5):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter() - t0)
        best.append(min(runs))
    return max(best[1] - best[0], 0.0) / calls
