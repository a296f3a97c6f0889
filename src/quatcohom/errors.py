"""Exception hierarchy for the engine.

Every error raised on purpose by this package derives from EngineError, so
callers can catch one class at the boundary.  The CLI maps two families to
exit codes: an InputError (a malformed input or a refused request) exits 2,
an InvalidStructure (a well-formed input that is not a valid structure)
exits 1, and every other EngineError (a violated theorem or a failed
cross-check) exits 3.
"""


class EngineError(Exception):
    """Base class for all errors raised by quatcohom."""


class InputError(EngineError):
    """The input could not be read, or asks for work the engine refuses."""


class InvalidStructure(EngineError):
    """The input was read but does not describe a valid structure."""


# -- scalar layer ----------------------------------------------------------

class CoefficientParseError(InputError):
    """A scalar or coefficient expression could not be parsed."""


class DivisionByZero(EngineError, ZeroDivisionError):
    """Exact division by a scalar or expression that is identically zero."""


class PoleAtBinding(InputError, ZeroDivisionError):
    """A parametric coefficient has a vanishing denominator at the binding."""


class UnboundParameter(InputError):
    """A formal parameter was left without a rational value."""


# -- input / schema layer --------------------------------------------------

class SchemaError(InputError):
    """A structure file violates the input schema; message carries the path."""


class SearchBoundError(InputError):
    """A certificate-search bound is negative or asks for unbounded work."""


class DimensionBudgetError(InputError):
    """A structure is too large for the engine to build its operators."""


class ValidationFailure(InvalidStructure):
    """An algebra failed validation and cannot be used to build a session."""


# -- algebra model ---------------------------------------------------------

class DimensionMismatch(EngineError):
    """Objects over incompatible spaces or degrees were combined."""


class EigenspaceDimensionError(InvalidStructure):
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

class NotHolomorphic(InvalidStructure):
    """The candidate volume form is not closed under the antiholomorphic
    differential."""


class NotReal(InvalidStructure):
    """The candidate form is not fixed by the quaternionic conjugation."""


class NotBidegree20(InvalidStructure):
    """A metric candidate was not a form of bidegree (2,0)."""


class NotSL2(InvalidStructure):
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
