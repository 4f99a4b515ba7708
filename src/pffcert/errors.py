"""Exception types shared across the package."""


class PffcertError(Exception):
    """Base class for package errors."""


class FactorTimeout(PffcertError):
    """A number was not factored: Pollard rho ran out of its effort budget on
    a composite, or trial division left a cofactor where exact primes were
    asked for."""


class NotPrime(PffcertError):
    """A prime (or, where a field order is expected, a prime power) was required."""


class InvalidArgument(PffcertError, ValueError):
    """An argument lies outside the domain of the operation."""


class NotIrreducible(PffcertError):
    """A polynomial required to be irreducible is not."""


class WrongDegree(PffcertError):
    """A polynomial has the wrong degree for the requested operation."""


class DivisionByZero(PffcertError, ZeroDivisionError):
    """Field inversion of zero."""


class ZeroElement(PffcertError):
    """The zero element is outside the domain of a multiplicative test."""


class NotADivisor(PffcertError):
    """Expected a divisor of x^n - 1 (or of q^n - 1)."""


class InconsistentTables(PffcertError):
    """The table engine's tables contradict the tower they were built from."""


class BudgetExceeded(PffcertError):
    """An enumeration budget would be exceeded."""


class NonPositiveDelta(PffcertError):
    """A sieve decomposition has delta <= 0 and is unusable."""


class DenominatorNonPositive(PffcertError):
    """The main inequality's denominator is not positive for these parameters."""
