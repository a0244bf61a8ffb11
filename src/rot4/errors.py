"""Exception types shared across the package."""


class Rot4Error(Exception):
    """Base class for all errors raised by rot4."""


class NotUnit(Rot4Error):
    """A quaternion that must have unit norm does not."""


class NotSimple(Rot4Error):
    """An operation that requires a simple rotation received something else."""


class GibbsSingular(Rot4Error):
    """The Gibbs (tangent) chart is singular here: a cosine or a
    composition denominator vanishes."""


class DegenerateAxis(Rot4Error):
    """composed_planes_from_gibbs got Gibbs data of an identity or
    isoclinic rotation, whose invariant planes are not unique."""


class PairingFailure(Rot4Error):
    """Eigenvalues of the symmetrized rotation matrix cannot be grouped
    into two near-equal pairs; the input is not a rotation to tolerance."""
