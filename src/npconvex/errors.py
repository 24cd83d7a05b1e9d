"""Exception hierarchy shared by the whole package.

Two families matter operationally: ValidationFailure (bad inputs or
configuration, CLI exit code 2) and ComputationFailure (a well-posed
problem whose solve cannot proceed, CLI exit code 1).  Every error
carries a short machine-readable ``category`` used in CLI error JSON.

check_real and check_count are the one decision of whether an argument
or a result is a usable number; each raises DomainError otherwise.
"""

from __future__ import annotations

import numbers


class NPConvexError(Exception):
    category = "error"


class ValidationFailure(NPConvexError):
    category = "validation"


class ComputationFailure(NPConvexError):
    category = "runtime"


class DomainError(ValidationFailure):
    """An argument lies outside its documented domain."""

    category = "domain"


_INF, _NAN = float("inf"), float("nan")
_FLOAT_MAX = 1.7976931348623157e308  # an integer beyond it has no float value


def _refused(message: str, value) -> DomainError:
    """DomainError with message's "{}" replaced by value, a NaN shown as
    the JSON constant and an integer beyond the float range by its size."""
    shown = repr(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        shown = "NaN" if value != value else str(value)
        if isinstance(value, numbers.Integral) and abs(value) > _FLOAT_MAX:
            shown = f"an integer of {int(value).bit_length()} bits"
    return DomainError(message.replace("{}", shown))


def check_real(value, name: str, lo=-_INF, hi=_INF, ends: str = "()", message: str = ""):
    """value, if it is a real number, not a bool, between lo and hi with
    the ends open "(" ")" or closed "[" "]"; else DomainError "<name> must
    lie in <interval>, got <value>", or `message`.  NaN lies in no interval
    and +-inf only at a closed infinite end."""
    v = value
    if type(v) is not float:  # NaN, in no interval, stands in for a non-number
        try:
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            v = float(value) if real else _NAN
        except OverflowError:  # an integer with no float value
            v = _NAN
    if (lo <= v if ends[0] == "[" else lo < v) and (v <= hi if ends[1] == "]" else v < hi):
        return value
    if not message:
        message = f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {{}}"
        admits_inf = ends[0] == "[" and lo == -_INF or ends[1] == "]" and hi == _INF
        if isinstance(value, numbers.Real) and not admits_inf and not -_INF < value < _INF:
            message += ", not a finite number"
    raise _refused(message, value)


def check_count(value, name: str, least: int = 1, message: str = ""):
    """value, if it is an integer, not a bool, of at least `least` that a
    float can hold; else DomainError "<name> must be an integer >= <least>,
    got <value>", or `message`."""
    if (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and least <= value <= _FLOAT_MAX:
        return value
    raise _refused(message or f"{name} must be an integer >= {least}, got {{}}", value)


class EmptySample(ValidationFailure):
    category = "empty_sample"


class EmptyData(ValidationFailure):
    category = "empty_data"


class DimensionMismatch(ValidationFailure):
    category = "dimension_mismatch"


class BaseRangeError(ValidationFailure):
    """A base classifier produced a value outside [-1, 1]."""

    category = "base_range"


class UnknownScenario(ValidationFailure):
    category = "unknown_scenario"


class SchemaError(ValidationFailure):
    category = "schema"


class NonFiniteValue(ValidationFailure):
    category = "non_finite"


class UnknownLabel(ValidationFailure):
    category = "unknown_label"


class OneClassEmpty(ValidationFailure):
    """A pooled sample contains only one label."""

    category = "one_class_empty"


class SampleTooSmall(ValidationFailure):
    """The strengthened constraint level alpha - kappa/sqrt(n) is not positive."""

    category = "sample_too_small"


class Infeasible(ComputationFailure):
    """No point of the simplex satisfies the constraint."""

    category = "infeasible"


class HypothesisFailed(ComputationFailure):
    """A lemma check was invoked with its hypothesis violated."""

    category = "hypothesis_failed"
