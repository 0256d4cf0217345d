"""Unit-disk geometry: boundary points, Cayley maps, pseudo-hyperbolic metric.

Interior points are plain ``complex`` values with |z| < 1 (see
``require_interior``).  Points of the unit circle get their own type,
``BoundaryPoint``, which stores the angle so that unit modulus is a
structural fact rather than a numerical one.  All types here are
immutable values and every operation is a pure function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, ValidationError

TWO_PI = 2.0 * math.pi

#: modulus below which a denominator counts as an exact pole
POLE_EPS = 1e-300

#: largest ||z| - 1| at which z counts as a point of the circle
CIRCLE_TOL = 1e-9

#: minimal angular separation for distinct boundary points
ANGLE_GAP = 1e-12


def require_interior(z: complex, name: str = "z") -> complex:
    """Validate |z| < 1 and return z as a complex number."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"{name} = {z} is not in the open unit disk")
    return z


def guard_pole(den, message: str):
    """``den``, a denominator (a number or a numpy array, maybe empty),
    unless some entry has modulus below POLE_EPS: then PoleError(message).
    A NaN entry is not a pole."""
    if np.any(np.abs(den) < POLE_EPS):
        raise PoleError(message)
    return den


def _point(z):
    """A numpy array as it is, anything else as a complex number."""
    return z if isinstance(z, np.ndarray) else complex(z)


@dataclass(frozen=True)
class BoundaryPoint:
    """The point exp(i*angle) of the unit circle.

    The angle is normalized into [0, 2*pi).  Storing the angle keeps the
    modulus exactly 1 by construction; boundary difference quotients are
    hypersensitive to off-circle drift, so this matters.
    """

    angle: float

    def __post_init__(self) -> None:
        a = float(self.angle) % TWO_PI
        if a == TWO_PI:  # guards against rounding of values just below 2*pi
            a = 0.0
        object.__setattr__(self, "angle", a)

    @classmethod
    def from_complex(cls, z: complex) -> "BoundaryPoint":
        """The circle point at the phase of z, which must be ``on_circle``."""
        z = complex(z)
        if not on_circle(z):
            raise ValidationError(f"|{z}| = {abs(z)} is not on the unit circle")
        return cls(cmath.phase(z))

    @property
    def value(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))

    def __complex__(self) -> complex:
        return self.value

    def gap(self, other: "BoundaryPoint") -> float:
        """Angular distance along the circle, in [0, pi]."""
        d = abs(self.angle - other.angle) % TWO_PI
        return min(d, TWO_PI - d)


def on_circle(z: complex) -> bool:
    """Whether z lies within CIRCLE_TOL of the unit circle: the test that
    tells a Denjoy-Wolff point tau on the circle from one in the disk, and
    a boundary point of an evolution map from an interior one.  On an
    array, the test of each point."""
    return abs(abs(z) - 1.0) <= CIRCLE_TOL


@dataclass(frozen=True)
class CayleyMap:
    """z -> i (tau + z) / (tau - z), sending the disk onto the upper
    half-plane and tau to infinity."""

    tau: BoundaryPoint

    def forward(self, z):
        """Evaluate at a complex number or a numpy array of them."""
        t, z = self.tau.value, _point(z)
        den = guard_pole(t - z, "Cayley map evaluated at tau")
        return 1j * (t + z) / den

    def inverse(self, w):
        """Evaluate the inverse at a complex number or a numpy array of them."""
        w = _point(w)
        den = guard_pole(w + 1j, "inverse Cayley map evaluated at its pole")
        return self.tau.value * (w - 1j) / den


def pseudo_hyperbolic_distance(z1: complex, z2: complex) -> float:
    """|z1 - z2| / |1 - conj(z2) z1|, in [0, 1) for interior points."""
    z1 = require_interior(z1, "z1")
    z2 = require_interior(z2, "z2")
    return abs(z1 - z2) / abs(1.0 - z2.conjugate() * z1)

