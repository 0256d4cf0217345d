"""Boundary behavior of computed self-maps: angular derivatives, Julia
quotients and arc-length comparison.

Angular limits are taken along the radius only.  At the regular points
this artifact produces, the radial limit equals the angular limit, and
oblique approach paths add cost without discriminating power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import BoundaryPoint, guard_pole
from .errors import DomainError, LoewnerError
from .extrapolate import default_radii, richardson
from .generators import FieldSpec
from .integrate import ToleranceSettings, iter_evolve_at


def _radial_values(evaluate, sigma: BoundaryPoint, n_times: int):
    """For each of n_times times, (kept radii, values at r*sigma) over the
    ``default_radii``, where ``evaluate(z)`` yields the value of z at each
    time in turn.

    All radii go in one batch.  If that raises a LoewnerError, each radius
    is evaluated as a scalar: a radius that fails at time u still serves
    the times before u, and at each time the radius list is cut at the
    first radius that did not reach it, so evaluation stops at a radius
    that reached no time.  Any other exception is a bug and propagates.
    """
    radii = default_radii()
    zs = np.asarray([r * sigma.value for r in radii])
    try:
        return [(radii, list(np.asarray(ws))) for ws in evaluate(zs)]
    except LoewnerError:
        pass
    reached = []
    for r in radii:
        values = []
        try:
            for w in evaluate(complex(r * sigma.value)):
                values.append(complex(w))
        except LoewnerError:
            pass
        if not values:
            break
        reached.append(values)
    out = []
    for k in range(n_times):
        n = next((j for j, values in enumerate(reached) if len(values) <= k), len(reached))
        out.append((radii[:n], [values[k] for values in reached[:n]]))
    return out


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


def angular_derivative(map_fn, sigma: BoundaryPoint,
                       omega: BoundaryPoint) -> AngularDerivativeEstimate:
    """Radial limit at sigma of the difference quotient of ``map_fn``
    toward omega, over the ``default_radii``."""
    ((kept_r, ws),) = _radial_values(lambda z: (map_fn(z),), sigma, 1)
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


def check_julia(map_fn, sigma: BoundaryPoint, omega: BoundaryPoint,
                bound: float, grid) -> tuple[float, complex]:
    """(max violation, the grid point where it occurs): the max over the
    grid of
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
    return float(viol[i]), complex(zs[i])


def dilation_curve(spec: FieldSpec, sigma: BoundaryPoint, t_grid,
                   tol: ToleranceSettings | None = None, s: float = 0.0):
    """Measured angular derivative of phi_{s,t} at sigma for each t, from
    one integration of the points at the ``default_radii`` starting at s.

    Divergent estimates propagate as NaN entries.
    """
    ts = [float(t) for t in t_grid]
    if s < 0.0 or any(t < s for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("t_grid must be increasing and start at t >= s >= 0")
    if not ts:
        return []
    out = []
    sweep = _radial_values(lambda z: iter_evolve_at(spec, s, ts, z, tol), sigma, len(ts))
    for t, (kept_r, ws) in zip(ts, sweep):
        est = _estimate(sigma, sigma, kept_r, ws)
        out.append((t, math.nan if est.diverged else est.value))
    return out


def check_arc_length(map_fn, arc: tuple[float, float],
                     samples: int = 2048) -> tuple[float, float, str]:
    """(length of a boundary arc, length of its image, note), to compare.

    The image is that of the map followed by the disk automorphism
    w -> (w - w0)/(1 - conj(w0) w), w0 = map(0), which fixes 0; a
    LoewnerError at 0 propagates.  An off-circle image, or a LoewnerError
    while evaluating it, makes the comparison not apply rather than fail:
    the image length is then NaN and the note says why; it is empty where
    the comparison applies.  Lengths come from unwrapped sampled arguments.
    """
    theta0, theta1 = (float(v) for v in arc)
    if not theta0 < theta1 or theta1 - theta0 >= 2.0 * math.pi:
        raise DomainError("arc must satisfy theta0 < theta1 < theta0 + 2*pi")
    w0 = complex(map_fn(0j))
    thetas = np.linspace(theta0, theta1, samples + 1)
    len_arc = theta1 - theta0
    try:
        ws = np.asarray(map_fn(np.exp(1j * thetas)))
        ws = (ws - w0) / guard_pole(1.0 - w0.conjugate() * ws,
                                    "normalizing automorphism evaluated at its pole")
    except LoewnerError as exc:
        return len_arc, math.nan, f"boundary evaluation failed: {exc}"
    off = float(np.max(np.abs(np.abs(ws) - 1.0)))
    if off > 1e-8:
        return len_arc, math.nan, f"image leaves the circle by {off:.3g}"
    u = np.unwrap(np.angle(ws))
    return len_arc, float(np.sum(np.abs(np.diff(u)))), ""
