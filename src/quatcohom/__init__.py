"""Exact cohomological invariants of hypercomplex nilpotent Lie algebras.

The package computes, over the Gaussian rationals, the single-complex
cohomologies attached to a left-invariant hypercomplex structure: the two
twisted Dolbeault groups, Bott-Chern and Aeppli, the six Varouchas
quotients, the first two pages of the twisted spectral sequence, and the
defect degrees built from them.  On top of that sit the volume-form layer
(star operator, duality pairings, middle-degree decompositions) and the
metric existence questions, decided exactly in quaternionic dimension two.
"""

from .cohomology import (
    CohomologyTable,
    MatrixComplex,
    ddj_lemma_holds,
    frolicher_degenerate,
    non_hkt_degrees,
)
from .errors import EngineError
from .fileio import (
    corpus_names,
    load_corpus,
    load_spec_file,
    parse_binding_args,
    parse_spec,
    serialize_spec,
)
from .metrics import (
    ExistenceVerdict,
    MetricCandidate,
    classify_metric,
    gram_matrix,
    hkt_existence,
    sg_existence,
    standard_omega,
)
from .model import (
    AlgebraSpec,
    ValidationReport,
    instantiate,
    validate_hypercomplex,
)
from .quaternionic import QuaternionicComplex
from .report import ReportSession, build_report, to_json, to_table
from .scalars import GaussianRational, ParamExpr, parse_coefficient, parse_rational
from .slstructure import DecompositionReport, PairingResult, SLStructure
from .suite import CheckResult, run_property_suite, suite_failed

__version__ = "1.0.0"

__all__ = [
    "AlgebraSpec",
    "CheckResult",
    "CohomologyTable",
    "DecompositionReport",
    "EngineError",
    "ExistenceVerdict",
    "GaussianRational",
    "MatrixComplex",
    "MetricCandidate",
    "PairingResult",
    "ParamExpr",
    "QuaternionicComplex",
    "ReportSession",
    "SLStructure",
    "ValidationReport",
    "build_report",
    "classify_metric",
    "corpus_names",
    "ddj_lemma_holds",
    "frolicher_degenerate",
    "gram_matrix",
    "hkt_existence",
    "instantiate",
    "load_corpus",
    "load_spec_file",
    "non_hkt_degrees",
    "parse_binding_args",
    "parse_coefficient",
    "parse_rational",
    "parse_spec",
    "run_property_suite",
    "serialize_spec",
    "sg_existence",
    "standard_omega",
    "suite_failed",
    "to_json",
    "to_table",
    "validate_hypercomplex",
    "__version__",
]
