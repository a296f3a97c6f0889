"""Spans around the public calls of each quatcohom layer, taken from outside.

The package has no tracing of its own, so the tracer wraps functions while
a traced pass runs and restores them afterwards.  Methods are wrapped once,
on their class.  A free function is also replaced in every module that
imported it by name (``from .linalg import rank, rref`` in ``suite`` and
``cohomology``, ``from .suite import run_property_suite`` in ``cli`` and
``report``); otherwise those calls would be missed.

Spans are kept in memory as ``[name, start, end, parent, op, cells]`` and
turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

# (module, attribute) of every traced call; "Class.method" names a method.
TARGETS = (
    ("fileio", "load_corpus"),
    ("fileio", "load_spec_file"),
    ("fileio", "parse_binding_args"),
    ("model", "validate_hypercomplex"),
    ("quaternionic", "QuaternionicComplex.build"),
    ("cohomology", "MatrixComplex.from_quaternionic"),
    ("cohomology", "MatrixComplex.__init__"),
    ("cohomology", "MatrixComplex.table"),
    ("cohomology", "MatrixComplex.e2_pages_all"),
    ("slstructure", "SLStructure.decomposition_report"),
    ("slstructure", "SLStructure.pairing_matrix"),
    ("metrics", "hkt_existence"),
    ("metrics", "sg_existence"),
    ("suite", "run_property_suite"),
    ("report", "build_report_from_session"),
    ("report", "to_json"),
    ("report", "to_table"),
    ("linalg", "rref"),
    ("linalg", "det"),
)

# metric -> (unit, how, spans).  "total" counts a span only when no span of
# the same metric encloses it; "self" subtracts the time of child spans.
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "fileio.load_s": ("s", "total", ("fileio.load_corpus", "fileio.load_spec_file",
                                     "fileio.parse_binding_args")),
    "model.validate_s": ("s", "total", ("model.validate_hypercomplex",)),
    "quaternionic.build_s": ("s", "self", ("quaternionic.QuaternionicComplex.build",)),
    "cohomology.matrix_complex_s": ("s", "total", ("cohomology.MatrixComplex.from_quaternionic",
                                                   "cohomology.MatrixComplex.__init__")),
    "cohomology.table_s": ("s", "self", ("cohomology.MatrixComplex.table",)),
    "cohomology.e2_pages_s": ("s", "total", ("cohomology.MatrixComplex.e2_pages_all",)),
    "slstructure.decompose_s": ("s", "total", ("slstructure.SLStructure.decomposition_report",)),
    "slstructure.pairing_s": ("s", "total", ("slstructure.SLStructure.pairing_matrix",)),
    "metrics.verdict_s": ("s", "total", ("metrics.hkt_existence", "metrics.sg_existence")),
    "metrics.verdict_calls": ("count", "calls", ("metrics.hkt_existence", "metrics.sg_existence")),
    "suite.run_s": ("s", "self", ("suite.run_property_suite",)),
    "report.render_s": ("s", "self", ("report.build_report_from_session", "report.to_json",
                                      "report.to_table")),
    "linalg.rref_s": ("s", "self", ("linalg.rref",)),
    "linalg.rref_calls": ("count", "calls", ("linalg.rref",)),
    "linalg.rref_cells": ("count", "cells", ("linalg.rref",)),
    "linalg.det_s": ("s", "total", ("linalg.det",)),
    "linalg.det_calls": ("count", "calls", ("linalg.det",)),
}

# Counts that must repeat exactly across traced runs of one seed.
REPEATABLE_COUNTS = ("linalg.rref_calls", "linalg.rref_cells",
                     "linalg.det_calls", "metrics.verdict_calls")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def _wrap(self, name: str, fn):
        sized = name == "linalg.rref"  # rows x cols of its matrix is recorded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells = args[0].nrows * args[0].ncols if sized else 0
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op, cells]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quatcohom" or key.startswith("quatcohom.")]
        try:
            for module_name, attr in TARGETS:
                module = sys.modules[f"quatcohom.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    undo.append((cls, method, raw))
                    setattr(cls, method, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def layer_metrics(self) -> Dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start

        def enclosed(index: int, names: Tuple[str, ...]) -> bool:
            parent = spans[index][3]
            while parent is not None:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        out: Dict[str, float] = {}
        for metric, (_, how, names) in LAYER_METRICS.items():
            chosen = [i for i, span in enumerate(spans) if span[0] in names]
            if how == "calls":
                out[metric] = len(chosen)
            elif how == "cells":
                out[metric] = sum(spans[i][5] for i in chosen)
            elif how == "self":
                out[metric] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in chosen)
            else:
                out[metric] = sum(spans[i][2] - spans[i][1] for i in chosen
                                  if not enclosed(i, names))
        return out

    def span_records(self) -> Iterator[dict]:
        for name, start, end, parent, op, cells in self.spans:
            record = {"name": name, "start": start, "end": end,
                      "parent": parent, "op": op}
            if cells:
                record["cells"] = cells
            yield record
