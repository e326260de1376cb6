"""Exception types shared across the package."""


class HeckeError(Exception):
    """Base class for every failure mode this package raises on purpose."""


class NoRelationWithinBound(HeckeError):
    """Searched for a linear relation up to the stated degree and found none."""


class RelationNotUnique(HeckeError):
    """A minimal monic relation was found over earlier vectors that are dependent."""


class TooLarge(HeckeError):
    """The requested object exceeds the sizes this exact engine supports."""


class NotAHomomorphism(HeckeError):
    """A stack of matrices does not define a representation of its group table."""


class NotAGroup(HeckeError):
    """A multiplication table or its labels do not form the group they claim to."""


class NotIrreducible(HeckeError):
    """A module expected to be (absolutely) irreducible is not."""


class SystemMismatch(HeckeError):
    """Operands were built over different coefficient systems."""


class ParityViolation(HeckeError):
    """A coefficient's grading is incompatible with its basis element."""


class WindowExhausted(HeckeError):
    """Laurent-polynomial exponents left the defensive window."""


class GapTooLarge(HeckeError):
    """Coset enumeration is only implemented for a congruence gap <= 2 in one block."""


class BadCharacteristic(HeckeError):
    """l is not a prime away from the residue characteristic, so tau is not a unit mod l."""


class UnknownModule(HeckeError):
    """No irreducible module of that name exists for the requested group."""


class NotACharacter(HeckeError):
    """Plain mode needs a one-dimensional module."""


class BadCount(HeckeError):
    """A count, seed, rank or window width is below the least value that means anything."""


class NotMonic(HeckeError):
    """A reduction polynomial must have leading coefficient 1 mod l."""


class DegenerateIdeal(HeckeError):
    """The ideal of a reduction polynomial misses a degree, so normal forms are not unique."""


class WrongModularCase(HeckeError):
    """The requested construction needs a different divisibility of q-1/q+1 by l."""


class EmptyIntertwiners(HeckeError):
    """A coefficient system came out with no self- or no swap-intertwiners."""


class NotBiEquivariant(HeckeError):
    """A candidate intertwiner fails the required two-sided equivariance."""


class CellConflict(HeckeError):
    """The residue oracle placed one coset pair in two cells at once."""


class CellLeak(HeckeError):
    """The finite convolution put support on a partial-swap cell without intertwiners."""


class BruhatMismatch(HeckeError):
    """A group element failed to decompose as p . w_d . p2 against the Bruhat data."""


class UnsupportedGroup(HeckeError):
    """A group-shape-specific routine was handed a group of another shape."""


class NotCuspidal(HeckeError):
    """The supplied representation has nonzero coinvariants for a unipotent radical."""
