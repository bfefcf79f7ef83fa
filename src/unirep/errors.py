"""Semantic exception hierarchy.

Public functions raise these instead of bare ``ValueError`` so callers
(and the CLI exit-code mapping) can tell input mistakes, modeling
mistakes, and resource limits apart.
"""

from __future__ import annotations


class UnirepError(Exception):
    """Base error for this package."""


class SpecError(UnirepError, ValueError):
    """A spec document or domain object violates its contract.

    Carries an optional ``field`` path (e.g. ``"kernels[0].values"``)
    locating the offending entry in a JSON spec file.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)


class DomainError(UnirepError, ValueError):
    """A numeric argument lies outside its domain (e.g. u not in [0,1))."""


class KindError(UnirepError, TypeError):
    """An object of the wrong kind was supplied (e.g. step CDF where a
    continuous one is required)."""


class ArityError(UnirepError, ValueError):
    """Tuple length or kernel arity does not match what the operation needs."""


class SymmetryError(UnirepError, ValueError):
    """A kernel declared or required symmetric is not."""


class RangeError(UnirepError, ValueError):
    """Kernel values lie outside the range required by the operation."""


class UnsupportedError(UnirepError, NotImplementedError):
    """The input is meaningful but outside the supported scope (infinite
    arity, n = infinity, a positive atom too small for a float cell)."""


class ScaleError(UnirepError, RuntimeError):
    """Exact enumeration would exceed the configured cap, or an array
    would exceed what numpy can hold."""


class MeasurabilityError(UnirepError, ValueError):
    """A kernel is not measurable with respect to the generated sigma-field.

    Attributes
    ----------
    kernel_name : str
    witness : tuple
        A pair ``(tuple_a, tuple_b)`` of atom tuples with identical
        codes on which the kernel takes different values.
    values : tuple
        The two differing kernel values ``(value_a, value_b)``.
    """

    def __init__(self, kernel_name: str, witness: tuple, values: tuple):
        self.kernel_name = kernel_name
        self.witness = witness
        self.values = values
        ta, tb = witness
        super().__init__(
            f"kernel {kernel_name!r} is not constant on sigma-atoms: "
            f"{ta} -> {values[0]!r} but {tb} -> {values[1]!r} "
            f"(equal generator codes)"
        )


class PowerError(UnirepError, RuntimeError):
    """A statistical test has too few runs for its validity conditions.

    Attributes
    ----------
    required_runs : int or None
        Estimated run count that would satisfy the expected-count floor,
        when such an estimate is possible.
    """

    def __init__(self, message: str, required_runs: int | None = None):
        self.required_runs = required_runs
        if required_runs is not None:
            message = f"{message} (try runs >= {required_runs})"
        super().__init__(message)
