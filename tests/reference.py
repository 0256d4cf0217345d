"""Reference formulas and test oracles that only the tests use.

``herglotz_eval`` and ``corollary_q_eval`` are a second, term-by-term
implementation of the field kernels, which pins the packed kernels of
``generators`` to the bit.  ``build_automorphism`` constructs the disk
automorphism with two prescribed boundary fixed points, the closed-form
oracle of the hyperbolic flows; ``identity``, ``compose``,
``is_disk_automorphism`` and ``as_mobius`` are the Mobius operations it
needs.  ``disk_grid_64`` is a test grid.
"""

from __future__ import annotations

import cmath

import numpy as np

from loewner.disk import (
    ANGLE_GAP,
    TWO_PI,
    BoundaryPoint,
    CayleyMap,
    MobiusTransform,
    guard_pole,
    require_interior,
)
from loewner.errors import ConstraintError, DomainError, PoleError, ValidationError
from loewner.grids import polar_grid
from loewner.measures import PROBABILITY_TOL, AtomicCircleMeasure


def require_probability(mu: AtomicCircleMeasure, tol: float = PROBABILITY_TOL) -> None:
    if not mu.is_probability(tol):
        raise ValidationError(
            f"probability mass != 1: total mass is {mu.total_mass!r}"
        )


def herglotz_eval(mu: AtomicCircleMeasure, imag_const: float, z):
    """sum_j w_j (sigma_j + z)/(sigma_j - z) + i*imag_const.

    Has nonnegative real part on the disk; the imaginary constant
    realizes the Im p(0) degree of freedom.
    """
    acc = 1j * float(imag_const)
    if isinstance(z, np.ndarray):
        acc = acc + np.zeros_like(z)
    for a in mu.atoms:
        s = a.position.value
        den = guard_pole(s - z, "evaluation point sits on a pole of the kernel")
        acc = acc + a.weight * (s + z) / den
    return acc


def corollary_q_eval(nu: AtomicCircleMeasure, z):
    """sum_j w_j (1 - kappa_j)/(1 + kappa_j z) for a probability measure
    charging nothing at angle 0."""
    require_probability(nu)
    origin = BoundaryPoint(0.0)
    for a in nu.atoms:
        if a.position.gap(origin) <= ANGLE_GAP:
            raise ValidationError("measure must exclude the point at angle 0")
    acc = 0j
    if isinstance(z, np.ndarray):
        acc = np.zeros_like(z)
    for a in nu.atoms:
        k = a.position.value
        den = guard_pole(1.0 + k * z, "evaluation point sits on a pole of the kernel")
        acc = acc + a.weight * (1.0 - k) / den
    return acc


def identity() -> MobiusTransform:
    return MobiusTransform(1.0, 0.0, 0.0, 1.0)


def compose(m: MobiusTransform, other: MobiusTransform) -> MobiusTransform:
    """Return m after other: z -> m(other(z))."""
    return MobiusTransform(
        m.a * other.a + m.b * other.c,
        m.a * other.b + m.b * other.d,
        m.c * other.a + m.d * other.c,
        m.c * other.b + m.d * other.d,
    )


def is_disk_automorphism(m: MobiusTransform, tol: float = 1e-12, samples: int = 16) -> bool:
    """Sampled check that the unit circle maps onto itself."""
    for k in range(samples):
        z = cmath.exp(1j * TWO_PI * k / samples)
        try:
            w = m.apply(z)
        except PoleError:
            return False
        if abs(abs(w) - 1.0) > tol:
            return False
    return True


def as_mobius(cayley: CayleyMap) -> MobiusTransform:
    t = cayley.tau.value
    return MobiusTransform(1j, 1j * t, -1.0, t)


def build_automorphism(
    fix1: BoundaryPoint,
    fix2: BoundaryPoint,
    *,
    dilation_at_fix1: float | None = None,
    interior_pair: tuple[complex, complex] | None = None,
) -> MobiusTransform:
    """Disk automorphism with boundary fixed points fix1 and fix2.

    Exactly one extra constraint pins the map down: either the angular
    derivative at fix1 (``dilation_at_fix1``) or an interior point and
    its required image (``interior_pair``).  Construction conjugates to
    a half-plane where the fixed points sit at 0 and infinity and the
    map is w -> lam * w, so the result is exact and the derivative at
    fix2 is 1/lam.
    """
    if fix1.gap(fix2) <= ANGLE_GAP:
        raise DomainError("fixed points must be distinct")
    if (dilation_at_fix1 is None) == (interior_pair is None):
        raise DomainError("give exactly one of dilation_at_fix1, interior_pair")

    half = as_mobius(CayleyMap(fix2))  # fix2 -> infinity
    x1 = CayleyMap(fix2).boundary_image(fix1)
    shift = MobiusTransform(1.0, -x1, 0.0, 1.0)  # fix1 -> 0
    conj = compose(shift, half)

    if dilation_at_fix1 is not None:
        lam = float(dilation_at_fix1)
        if not lam > 0.0:
            raise DomainError("dilation must be positive")
    else:
        z0, w0 = interior_pair
        zeta = conj.apply(require_interior(z0, "interior_pair[0]"))
        omega = conj.apply(require_interior(w0, "interior_pair[1]"))
        lam = abs(omega) / abs(zeta)
        if abs(lam * zeta - omega) > 1e-9 * (1.0 + abs(omega)):
            raise ConstraintError(
                "interior pair is not reachable by an automorphism fixing the axis"
            )

    if lam == 1.0:
        return identity()
    scale = MobiusTransform(lam, 0.0, 0.0, 1.0)
    m = compose(compose(conj.inverse(), scale), conj)
    if not is_disk_automorphism(m):
        raise ConstraintError("construction did not produce a disk automorphism")
    return m


def disk_grid_64() -> np.ndarray:
    """8 radii x 8 angles, staying clear of the boundary."""
    return polar_grid([0.15, 0.3, 0.45, 0.6, 0.72, 0.82, 0.9, 0.95], 8)
