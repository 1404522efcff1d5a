"""Exception types shared across the workbench.

Every exception raised on a contract violation derives from
:class:`StableringsError`, so callers (in particular the CLI) can map the
whole family to a usage-error exit code.
"""


class StableringsError(Exception):
    """Base class for all workbench errors."""


class EmptyInput(StableringsError):
    """A generating set was empty."""


class GcdNotOne(StableringsError):
    """Generators do not have gcd 1, so the semigroup is not cofinite."""


class CapExceeded(StableringsError):
    """An enumeration request exceeded the configured resource cap."""


class NotStabilized(StableringsError):
    """Hilbert differences failed to stabilize inside the probe window."""


class NotCommutative(StableringsError):
    """Structure-constant table violates commutativity."""


class NotAssociative(StableringsError):
    """Structure-constant table violates associativity."""


class NoIdentity(StableringsError):
    """Basis vector e_0 does not act as a multiplicative identity."""


class UnsupportedField(StableringsError):
    """Requested coefficient field is not one of the supported ones."""


class TooLarge(CapExceeded):
    """Algebra is too large for the exhaustive pair test."""


class Unclassifiable(StableringsError):
    """Internal inconsistency: a quadratic algebra escaped every class."""


class BadRank(StableringsError):
    """Idealization requires a free module of rank at least 1."""


class BadPrecision(StableringsError):
    """Truncation precision is too small to be meaningful."""


class BadTrials(StableringsError):
    """A trial count was negative."""


class NotRegular(StableringsError):
    """Ideal has no generator with a usable nonzerodivisor component."""


class PrecisionTooLow(StableringsError):
    """Requested computation does not fit inside the safe precision margin."""
