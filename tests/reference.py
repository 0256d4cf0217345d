"""Reference formulas and test oracles that only the tests use.

``herglotz_eval`` and ``corollary_q_eval`` are a second, term-by-term
implementation of the field kernels, which pins the packed kernels of
``generators`` to the bit.  ``build_automorphism`` constructs the disk
automorphism with two prescribed boundary fixed points, the closed-form
oracle of the hyperbolic flows; ``MobiusTransform``, ``identity``,
``compose``, ``is_disk_automorphism``, ``as_mobius`` and
``boundary_image`` are the Mobius and Cayley operations it needs.
``disk_grid_64`` is a test grid.

``null_quotient`` is the radial limit of G(z, t)/(z - sigma) over the
``default_radii``, the numerical reference that the closed-form field
derivative ``KernelData.derivative_at`` is compared with.

``build_three_brfp_map`` builds a self-map of the disk with three
prescribed boundary regular fixed points from a Nevanlinna transform of
the upper half-plane (``NevanlinnaRep`` over a ``RealAtomicMeasure``),
with closed-form dilations at all three; ``check_half_plane_julia`` is
the derivative inequality at infinity of such a transform.  The
acceptance criteria use them as an oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from loewner.disk import (
    ANGLE_GAP,
    TWO_PI,
    BoundaryPoint,
    CayleyMap,
    guard_pole,
    require_interior,
)
from loewner.errors import DomainError, LoewnerError, PoleError, ValidationError
from loewner.extrapolate import default_radii, richardson
from loewner.generators import FieldSpec
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


@dataclass(frozen=True)
class MobiusTransform:
    """z -> (a z + b) / (c z + d) with ad - bc != 0.

    Coefficients are normalized so max(|a|,|b|,|c|,|d|) = 1, which keeps
    pole detection scale-free.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        a, b, c, d = (complex(v) for v in (self.a, self.b, self.c, self.d))
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if scale == 0.0:
            raise ValidationError("all Mobius coefficients are zero")
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
        if a * d - b * c == 0:
            raise ValidationError("degenerate Mobius transform: ad - bc = 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def apply(self, z):
        """Evaluate at a complex number or a numpy array of them."""
        z = z if isinstance(z, np.ndarray) else complex(z)
        den = guard_pole(self.c * z + self.d, "Mobius transform evaluated at its pole")
        return (self.a * z + self.b) / den

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)


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


def boundary_image(cayley: CayleyMap, sigma: BoundaryPoint) -> float:
    """Image of a circle point other than tau; lands on the real axis."""
    if cayley.tau.gap(sigma) <= ANGLE_GAP:
        raise PoleError("boundary image of tau itself is infinite")
    return cayley.forward(sigma.value).real


class ConstraintError(LoewnerError, ValueError):
    """A construction problem has no solution for the given data."""


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
    x1 = boundary_image(CayleyMap(fix2), fix1)
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


@dataclass(frozen=True)
class NullQuotient:
    """Radial limit of G(z, t)/(z - sigma); finite at boundary regular
    null points, with divergence flagged rather than raised."""

    sigma: BoundaryPoint
    value: complex
    t: float
    error: float
    diverged: bool


def null_quotient(spec: FieldSpec, sigma: BoundaryPoint, t: float = 0.0) -> NullQuotient:
    """The radial limit of G(z, t)/(z - sigma) over the ``default_radii``."""
    s = sigma.value
    zs = np.asarray([r * s for r in default_radii()])
    quotients = spec.frozen_at(t)(zs) / (zs - s)
    ex = richardson(quotients)
    diverged = ex.grew_unboundedly or ex.error > 1e-6 * (1.0 + abs(ex.value))
    return NullQuotient(sigma, ex.value, t, ex.error, diverged)


def herglotz_zero_angle(pairs, lo: float, hi: float) -> float:
    """The angle in (lo, hi) of the zero on the circle of
    h(z) = sum_j alpha_j (sigma_j + z)/(sigma_j - z), sigma_j = exp(i a_j),
    for (a_j, alpha_j) in ``pairs``, where lo < hi are the angles of two
    consecutive atoms.  On the circle h(exp(i theta)) is
    i sum_j alpha_j cot((theta - a_j)/2), which falls from +i inf to -i inf
    across (lo, hi); bisection runs until the bracket stops shrinking."""
    def im_h(theta):
        return sum(alpha / math.tan(0.5 * (theta - a)) for a, alpha in pairs)

    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if im_h(mid) > 0.0:
            lo = mid
        else:
            hi = mid


class InfeasibleError(ConstraintError):
    """A solved parameter landed outside its admissible range."""


@dataclass(frozen=True)
class RealAtomicMeasure:
    """Finite positive atomic measure on the real line with a declared
    support window: atoms lie strictly inside (xi1, xi2) when ``inside``,
    and strictly outside [xi1, xi2] otherwise."""

    atoms: tuple[tuple[float, float], ...]
    support_window: tuple[float, float]
    inside: bool = True

    def __post_init__(self) -> None:
        xi1, xi2 = (float(v) for v in self.support_window)
        if not xi1 < xi2:
            raise ValidationError(f"support window requires xi1 < xi2, got {xi1}, {xi2}")
        object.__setattr__(self, "support_window", (xi1, xi2))
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for t, w in atoms:
            if not (math.isfinite(t) and math.isfinite(w) and w > 0.0):
                raise ValidationError(f"bad real atom ({t}, {w})")
            if self.inside and not (xi1 < t < xi2):
                raise ValidationError(f"atom location {t} not strictly inside ({xi1}, {xi2})")
            if not self.inside and xi1 <= t <= xi2:
                raise ValidationError(f"atom location {t} not outside [{xi1}, {xi2}]")

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)


@dataclass(frozen=True)
class NevanlinnaRep:
    """Phi(z) = alpha + beta z + sum_k w_k (1 + t_k z)/(t_k - z), a
    self-map of the upper half-plane when beta >= 0."""

    alpha: float
    beta: float
    measure: RealAtomicMeasure = field(
        default_factory=lambda: RealAtomicMeasure((), (-1.0, 1.0))
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValidationError("alpha and beta must be finite")
        if self.beta < 0.0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")

    def derivative(self, x: float) -> float:
        """Phi'(x) = beta + sum w_k (1 + t_k^2)/(t_k - x)^2 at a real
        point off the support."""
        acc = self.beta
        for t, w in self.measure.atoms:
            acc += w * (1.0 + t * t) / (t - x) ** 2
        return acc


def nevanlinna_eval(rep: NevanlinnaRep, z):
    """Phi(z) at a number or a numpy array of them; PoleError at an atom."""
    acc = rep.alpha + rep.beta * z
    for t, w in rep.measure.atoms:
        den = guard_pole(t - z, "evaluation point sits on a pole of the kernel")
        acc = acc + w * (1.0 + t * z) / den
    return acc


def check_half_plane_julia(rep: NevanlinnaRep, grid) -> float:
    """Max over the grid of beta * Im z - Im Phi(z); nonpositive for every
    genuine upper-half-plane transform (violations mean the derivative
    bound at infinity fails)."""
    zs = np.asarray(grid, dtype=complex)
    if np.min(zs.imag) <= 0.0:
        raise DomainError("grid must lie in the upper half-plane")
    vals = nevanlinna_eval(rep, zs)
    return float(np.max(rep.beta * zs.imag - np.asarray(vals).imag))


@dataclass(frozen=True)
class ThreeBrfpMap:
    """Self-map of the disk with boundary regular fixed points sigma1,
    sigma2, tau, assembled as f = A^{-1} o Phi o A where Phi is a
    Nevanlinna transform fixing xi1, xi2 and A maps the disk onto the
    upper half-plane sending tau to infinity and the sigmas onto the
    xis.  Because A matches fixed points, the conjugation cancels in
    the chain rule and f'(sigma_j) = Phi'(xi_j), f'(tau) = 1/beta.
    """

    rep: NevanlinnaRep
    xi1: float
    xi2: float
    tau: BoundaryPoint
    sigma1: BoundaryPoint
    sigma2: BoundaryPoint
    cayley_in: CayleyMap
    align: MobiusTransform
    xi_for_sigma1: float
    xi_for_sigma2: float

    def __call__(self, z):
        w = self.align.apply(self.cayley_in.forward(z))
        phi = nevanlinna_eval(self.rep, w)
        back = self.align.inverse().apply(phi)
        return self.cayley_in.inverse(back)

    @property
    def tau_dilation(self) -> float:
        return 1.0 / self.rep.beta

    @property
    def sigma1_dilation(self) -> float:
        return self.rep.derivative(self.xi_for_sigma1)

    @property
    def sigma2_dilation(self) -> float:
        return self.rep.derivative(self.xi_for_sigma2)


def build_three_brfp_map(
    xi1: float,
    xi2: float,
    measure: RealAtomicMeasure,
    targets: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint],
) -> ThreeBrfpMap:
    """Solve Phi(xi1) = xi1, Phi(xi2) = xi2 for (alpha, beta) and wire the
    half-plane transform back to the disk.

    For measures supported inside (xi1, xi2) the solved beta equals
    1 + sum w_k (1 + t_k^2)/((xi2 - t_k)(t_k - xi1)) >= 1, so the dilation
    at tau is 1/beta <= 1.  Outside-support measures can drive beta to 0
    or below, which is rejected as infeasible.
    """
    xi1, xi2 = float(xi1), float(xi2)
    if not xi1 < xi2:
        raise DomainError(f"need xi1 < xi2, got {xi1}, {xi2} (singular system)")
    wxi1, wxi2 = measure.support_window
    if abs(wxi1 - xi1) > 1e-12 or abs(wxi2 - xi2) > 1e-12:
        raise ValidationError("measure support window does not match (xi1, xi2)")
    sigma1, sigma2, tau = targets
    for a, b in ((sigma1, sigma2), (sigma1, tau), (sigma2, tau)):
        if a.gap(b) <= ANGLE_GAP:
            raise DomainError("target boundary points must be pairwise distinct")

    correction = math.fsum(
        w * (1.0 + t * t) / ((t - xi2) * (t - xi1)) for t, w in measure.atoms
    )
    beta = 1.0 - correction
    if beta <= 0.0:
        raise InfeasibleError(f"solved beta = {beta} is not positive")
    s1 = math.fsum(w * (1.0 + t * xi1) / (t - xi1) for t, w in measure.atoms)
    alpha = xi1 * (1.0 - beta) - s1
    rep = NevanlinnaRep(alpha, beta, measure)
    for xi in (xi1, xi2):
        if abs(nevanlinna_eval(rep, complex(xi)) - xi) > 1e-12 * max(1.0, abs(xi)):
            raise ValidationError("fixed-point system solve lost precision")

    cayley_in = CayleyMap(tau)
    h1 = boundary_image(cayley_in, sigma1)
    h2 = boundary_image(cayley_in, sigma2)
    if h1 < h2:
        m1, m2 = xi1, xi2
    else:
        m1, m2 = xi2, xi1
    u = (m2 - m1) / (h2 - h1)
    v = m1 - u * h1
    align = MobiusTransform(u, v, 0.0, 1.0)
    return ThreeBrfpMap(
        rep, xi1, xi2, tau, sigma1, sigma2, cayley_in, align, m1, m2
    )
