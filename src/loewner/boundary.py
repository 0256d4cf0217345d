"""Boundary behavior of computed self-maps: angular derivatives, Julia
quotients, Denjoy-Wolff location, arc-length comparison, and the
half-plane derivative inequality.

Angular limits are taken along the radius only.  At the regular points
this artifact produces, the radial limit equals the angular limit, and
oblique approach paths add cost without discriminating power.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .disk import BoundaryPoint, MobiusTransform
from .errors import DomainError, LoewnerError
from .extrapolate import default_radii, richardson
from .generators import FieldSpec
from .integrate import ToleranceSettings, evolve_at, iter_evolve_at
from .measures import NevanlinnaRep, nevanlinna_eval


def _check_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise DomainError("need at least two radii")
    if any(not (0.0 < r < 1.0) for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise DomainError("radii must be strictly increasing inside (0, 1)")
    return radii


def _eval_along_radius(map_fn, sigma: BoundaryPoint, radii: list[float]):
    """Evaluate the map at r*sigma, falling back to pointwise calls and a
    truncated radius list when extreme radii raise a LoewnerError.  Any
    other exception is a bug in the map and propagates."""
    s = sigma.value
    zs = np.asarray([r * s for r in radii])
    try:
        ws = np.asarray(map_fn(zs))
        return radii, list(ws)
    except LoewnerError:
        pass
    kept_r, kept_w = [], []
    for r in radii:
        try:
            kept_w.append(complex(map_fn(complex(r * s))))
            kept_r.append(r)
        except LoewnerError:
            break
    return kept_r, kept_w


@dataclass(frozen=True)
class AngularDerivativeEstimate:
    """Extrapolated boundary derivative at sigma with image omega.

    ``value`` is conj(omega) * sigma * (extrapolated difference quotient),
    which is real and positive at a regular contact point and equals the
    dilation when sigma is fixed.  ``value`` is None when diverged.
    """

    sigma: BoundaryPoint
    omega: BoundaryPoint
    value: float | None
    raw_quotients: tuple[tuple[float, complex], ...]
    extrapolation_error: float
    diverged: bool


def angular_derivative(
    map_fn, sigma: BoundaryPoint, omega: BoundaryPoint, radii=None
) -> AngularDerivativeEstimate:
    radii = _check_radii(default_radii() if radii is None else radii)
    kept_r, ws = _eval_along_radius(map_fn, sigma, radii)
    return _estimate(sigma, omega, kept_r, ws)


def _estimate(sigma: BoundaryPoint, omega: BoundaryPoint, kept_r,
              ws) -> AngularDerivativeEstimate:
    """Richardson estimate from the map's values ``ws`` at r*sigma for the
    radii that could be evaluated; fewer than four radii diverge."""
    s, o = sigma.value, omega.value
    if len(kept_r) < 4:
        raw = tuple(zip(kept_r, (complex(w) for w in ws)))
        return AngularDerivativeEstimate(sigma, omega, None, raw, math.inf, True)
    quotients = [(w - o) / (r * s - s) for r, w in zip(kept_r, ws)]
    ex = richardson(quotients)
    normalized = o.conjugate() * s * ex.value
    diverged = ex.grew_unboundedly or not math.isfinite(normalized.real)
    error = ex.error + abs(normalized.imag)
    raw = tuple(zip(kept_r, (complex(q) for q in quotients)))
    if diverged or normalized.real <= 0.0:
        return AngularDerivativeEstimate(sigma, omega, None, raw, error, True)
    return AngularDerivativeEstimate(sigma, omega, normalized.real, raw, error, False)


@dataclass(frozen=True)
class JuliaCheckResult:
    sigma: BoundaryPoint
    omega: BoundaryPoint
    bound: float
    max_violation: float
    worst_point: complex


def check_julia(map_fn, sigma: BoundaryPoint, omega: BoundaryPoint,
                bound: float, grid) -> JuliaCheckResult:
    """Max over the grid of
    |omega - phi(z)|^2/(1 - |phi(z)|^2) - bound * |sigma - z|^2/(1 - |z|^2).

    Nonpositive everywhere iff the bound dominates the boundary
    distortion; violations are data, not exceptions.
    """
    if bound <= 0.0:
        raise DomainError("bound must be positive")
    zs = np.asarray(grid, dtype=complex)
    if float(np.max(np.abs(zs))) >= 1.0:
        raise DomainError("grid must lie in the open disk")
    ws = np.asarray(map_fn(zs))
    lhs = np.abs(omega.value - ws) ** 2 / (1.0 - np.abs(ws) ** 2)
    rhs = np.abs(sigma.value - zs) ** 2 / (1.0 - np.abs(zs) ** 2)
    viol = lhs - bound * rhs
    i = int(np.argmax(viol))
    return JuliaCheckResult(sigma, omega, bound, float(viol[i]), complex(zs[i]))


@dataclass(frozen=True)
class DWEstimate:
    location: complex
    interior: bool
    iterations_used: int
    converged: bool


def estimate_dw(map_fn, z0: complex, max_iter: int = 200,
                tol: float = 1e-12) -> DWEstimate:
    """Locate the Denjoy-Wolff point by forward iteration.

    Interior convergence: Cauchy increments below tol with the iterate
    staying off the boundary.  Boundary convergence: modulus above
    1 - 1e-6 with the argument drifting less than 1e-8 over the last 10
    iterates (the two regimes converge at different speeds).
    """
    z = complex(z0)
    if abs(z) >= 1.0:
        raise DomainError("start point must be interior")
    args: list[float] = []
    for n in range(1, max_iter + 1):
        z_next = complex(map_fn(z))
        if abs(z_next - z) < tol and abs(z_next) < 1.0 - 1e-9:
            return DWEstimate(z_next, True, n, True)
        if abs(z_next) > 1.0 - 1e-6:
            args.append(cmath.phase(z_next))
            if len(args) >= 10:
                recent = args[-10:]
                drift = max(recent) - min(recent)
                if drift < 1e-8:
                    loc = cmath.exp(1j * recent[-1])
                    return DWEstimate(loc, False, n, True)
        else:
            args.clear()
        z = z_next
    return DWEstimate(z, abs(z) < 1.0 - 1e-9, max_iter, False)


def _radial_sweep(spec: FieldSpec, s: float, times: list[float],
                  sigma: BoundaryPoint, radii: list[float], tol):
    """For each time u, (kept radii, phi_{s,u}(r sigma)) from one sweep.

    The rule of ``_eval_along_radius``, applied per time: if the batched
    sweep raises a LoewnerError, each radius gets its own scalar sweep, a
    radius that fails at time u stays usable before u, and the radius
    list is cut at the first radius that did not reach u.
    """
    sv = sigma.value
    zs = np.asarray([r * sv for r in radii])
    try:
        return [(radii, list(ws)) for ws in evolve_at(spec, s, times, zs, tol)]
    except LoewnerError:
        pass
    reached = []
    for r in radii:
        values = []
        try:
            for w in iter_evolve_at(spec, s, times, complex(r * sv), tol):
                values.append(w)
        except LoewnerError:
            pass
        reached.append(values)
    out = []
    for k in range(len(times)):
        kept_r, kept_w = [], []
        for r, values in zip(radii, reached):
            if len(values) <= k:
                break
            kept_r.append(r)
            kept_w.append(values[k])
        out.append((kept_r, kept_w))
    return out


def dilation_curve(spec: FieldSpec, sigma: BoundaryPoint, t_grid,
                   tol: ToleranceSettings | None = None, radii=None, s: float = 0.0):
    """Measured angular derivative of phi_{s,t} at sigma for each t, from
    one integration of the radial points starting at s.

    Divergent estimates propagate as NaN entries.
    """
    ts = [float(t) for t in t_grid]
    if s < 0.0 or any(t < s for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("t_grid must be increasing and start at t >= s >= 0")
    if not ts:
        return []
    radii = _check_radii(default_radii() if radii is None else radii)
    out = []
    for t, (kept_r, ws) in zip(ts, _radial_sweep(spec, s, ts, sigma, radii, tol)):
        est = _estimate(sigma, sigma, kept_r, ws)
        out.append((t, math.nan if est.diverged else est.value))
    return out


@dataclass(frozen=True)
class ArcLengthResult:
    len_arc: float
    len_image: float
    passed: bool
    applicable: bool
    note: str = ""


def normalize_fix_origin(map_fn):
    """Post-compose with the disk automorphism sending map(0) to 0."""
    w0 = complex(map_fn(0j))
    t = MobiusTransform(1.0, -w0, -w0.conjugate(), 1.0)
    return lambda z: t.apply(map_fn(z))


def check_arc_length(map_fn, arc: tuple[float, float],
                     samples: int = 2048) -> ArcLengthResult:
    """Compare the length of a boundary arc with the length of its image.

    The map must fix 0 (normalize first) and carry the sampled arc to the
    circle; an off-circle image, or a LoewnerError while evaluating it,
    yields a not-applicable result rather than a failure.  Lengths come
    from unwrapped sampled arguments.
    """
    theta0, theta1 = (float(v) for v in arc)
    if not theta0 < theta1 or theta1 - theta0 >= 2.0 * math.pi:
        raise DomainError("arc must satisfy theta0 < theta1 < theta0 + 2*pi")
    if abs(complex(map_fn(0j))) > 1e-9:
        raise DomainError("map must fix the origin; compose with a normalizer")
    thetas = np.linspace(theta0, theta1, samples + 1)
    len_arc = theta1 - theta0
    try:
        ws = np.asarray(map_fn(np.exp(1j * thetas)))
    except LoewnerError as exc:
        return ArcLengthResult(len_arc, math.nan, False, False,
                               f"boundary evaluation failed: {exc}")
    off = float(np.max(np.abs(np.abs(ws) - 1.0)))
    if off > 1e-8:
        return ArcLengthResult(len_arc, math.nan, False, False,
                               f"image leaves the circle by {off:.3g}")
    u = np.unwrap(np.angle(ws))
    len_image = float(np.sum(np.abs(np.diff(u))))
    return ArcLengthResult(len_arc, len_image, len_arc <= len_image + 1e-6, True)


def check_half_plane_julia(rep: NevanlinnaRep, grid) -> float:
    """Max over the grid of beta * Im z - Im Phi(z); nonpositive for every
    genuine upper-half-plane transform (violations mean the derivative
    bound at infinity fails)."""
    zs = np.asarray(grid, dtype=complex)
    if np.min(zs.imag) <= 0.0:
        raise DomainError("grid must lie in the upper half-plane")
    vals = nevanlinna_eval(rep, zs)
    return float(np.max(rep.beta * zs.imag - np.asarray(vals).imag))
