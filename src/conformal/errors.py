"""Exception hierarchy for the toolkit.

Every failure mode raised by the library derives from :class:`ToolkitError`,
so callers (and the CLI) can catch one base class and map it to an exit code.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- surfaces
class OutOfDomain(ToolkitError):
    """Requested parameter point lies outside the patch domain."""


class UmbilicPoint(ToolkitError):
    """Principal curvatures coincide; the conformal machinery is undefined."""


class DegenerateMetric(ToolkitError):
    """First fundamental form is (numerically) singular."""


class InversionCenterOnSurface(ToolkitError):
    """A sphere-inversion primitive has its center on the surface image."""


# ------------------------------------------------------------- invariants
class BoundaryTooClose(ToolkitError):
    """Field differencing stencil would leave the parameter domain."""


class DegenerateDenominator(ToolkitError):
    """The genericity quantity xi1(theta2) + xi2(theta1) vanishes, so psi
    is not determined by the theta fields."""


class ScaleOverflow(ToolkitError):
    """A result from finite input leaves the float range: a power (mu^3 in
    psi, a contact slope t^4 in a profile) or a field differenced for psi
    overflows."""


# ------------------------------------------------------------- osculation
class DupinPoint(ToolkitError):
    """Both conformal principal curvatures vanish."""


class CanalPoint(ToolkitError):
    """Exactly one conformal principal curvature vanishes; the order-4
    matching degenerates and no unique osculating cyclide exists."""


# ------------------------------------------------------------ line fields
class SeedIsDupinPoint(ToolkitError):
    """Trace seeded on the Dupin locus, where the field is undefined."""


class AngleDegenerate(ToolkitError):
    """The Darboux angle variable sits at a degeneracy of its ODE."""


# ------------------------------------------------------------- intersector
class WindowTooLarge(ToolkitError):
    """Canonical truncation invalid: quartic terms dominate the quadratic
    ones at the window edge."""


class ResolutionTooLow(ToolkitError):
    """Contour grid resolution below the supported minimum."""


# -------------------------------------------------------------- prescriber
class KappaZero(ToolkitError):
    """Prescribed ratio field has a zero where it is used as a divisor."""


class NonPositiveResult(ToolkitError):
    """The integrated coframe coefficient left the positive cone."""


class MissingField(ToolkitError):
    """A grid operation needs a field that is not present."""


class MarginTooSmall(ToolkitError):
    """Grid too small for the interior margin of the differencing stencil."""


# ----------------------------------------------------------------- catalog
class SelfIntersectingTube(ToolkitError):
    """Tube radius reaches the curvature radius of its center curve."""
