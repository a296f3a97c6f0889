"""Exception hierarchy for the engine.

Every error raised on purpose by this package derives from EngineError, so
callers can catch one class at the boundary.  The CLI maps subfamilies to
exit codes: input/parse problems, validation failures and theorem
violations are kept distinct.
"""


class EngineError(Exception):
    """Base class for all errors raised by quatcohom."""


# -- scalar layer ----------------------------------------------------------

class CoefficientParseError(EngineError):
    """A scalar or coefficient expression could not be parsed."""


class DivisionByZero(EngineError, ZeroDivisionError):
    """Exact division by a scalar or expression that is identically zero."""


class PoleAtBinding(EngineError, ZeroDivisionError):
    """A parametric coefficient has a vanishing denominator at the binding."""


class UnboundParameter(EngineError):
    """A formal parameter was left without a rational value."""


# -- input / schema layer --------------------------------------------------

class SchemaError(EngineError):
    """A structure file violates the input schema; message carries the path."""


class SearchBoundError(EngineError):
    """A certificate-search bound is negative or asks for unbounded work."""


class DimensionBudgetError(EngineError):
    """A structure is too large for the engine to build its operators."""


class ValidationFailure(EngineError):
    """An algebra failed validation and cannot be used to build a session."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- algebra model ---------------------------------------------------------

class DimensionMismatch(EngineError):
    """Objects over incompatible spaces or degrees were combined."""


class QuaternionicRelationFailure(EngineError):
    """The endomorphism triple does not satisfy the quaternion relations."""


class IntegrabilityFailure(EngineError):
    """An almost complex structure in the triple is not integrable."""


class EigenspaceDimensionError(EngineError):
    """The +i eigenspace of the complex structure has the wrong dimension."""


class IntegrabilityViolation(EngineError):
    """d of a pure-bidegree form produced components outside the two
    expected bidegrees; only possible if the complex structure data is
    inconsistent with the differential."""


# -- cohomology layer ------------------------------------------------------

class NotASubspace(EngineError):
    """Quotient requested by a space that is not contained in the other."""


class InternalInconsistency(EngineError):
    """Two independent computations of the same quantity disagree.

    This is always an engine bug, never a property of the input.
    """


class TheoremViolation(EngineError):
    """A computed value contradicts a structural theorem that holds for
    every valid input; reported loudly instead of being silenced."""


# -- volume form / Hodge layer ---------------------------------------------

class NotHolomorphic(EngineError):
    """The candidate volume form is not closed under the antiholomorphic
    differential."""


class NotReal(EngineError):
    """The candidate form is not fixed by the quaternionic conjugation."""


class NotBidegree20(EngineError):
    """A metric candidate was not a form of bidegree (2,0)."""


class NotSL2(EngineError):
    """An operation specific to quaternionic dimension two was requested
    on a session of a different dimension."""


class RepresentativeDependence(EngineError):
    """A value that must not depend on chosen representatives changed when
    the representatives were perturbed."""


class DecompositionFailure(EngineError):
    """Spaces expected to decompose a cohomology group fail to do so."""


class NotGauduchon(EngineError):
    """The supplied metric form does not satisfy the Gauduchon equation."""


class NotAeppliClosed(EngineError):
    """The supplied form is not closed under the second-order operator."""
