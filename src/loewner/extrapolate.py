"""Richardson extrapolation for radial boundary limits.

Difference quotients toward a regular boundary point obey an O(h) error
model in h = 1 - r.  With radii r_k = 1 - 2^-k the single-elimination
extrapolants 2 f(h_{k+1}) - f(h_k) cancel the first-order term.  Because
the raw samples of ODE-backed maps carry integration noise amplified by
1/h, the best extrapolant is not necessarily the last one: we pick the
pair with the smallest successive difference, which tracks the noise
floor, and report that difference as the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def default_radii() -> list[float]:
    """r_k = 1 - 2^-k for k = 4..20."""
    return [1.0 - 2.0 ** (-k) for k in range(4, 21)]


@dataclass(frozen=True)
class Extrapolation:
    value: complex
    error: float
    extrapolants: tuple[complex, ...]

    @property
    def grew_unboundedly(self) -> bool:
        """Divergence heuristic: tail extrapolants keep growing near the
        doubling rate (a 1/h singularity doubles per halved step but
        approaches the factor 2 from below, hence the 1.8 threshold), or
        the error estimate is of the order of the value itself."""
        e = self.extrapolants
        if len(e) < 2:
            return True
        if abs(e[-1]) > 1.8 * abs(e[-2]) + 1e-8:
            return True
        return self.error > 0.25 * (1.0 + abs(self.value))


def richardson(values) -> Extrapolation:
    """Extrapolate samples f(h_k), h_k = 2^-k, to h -> 0: the samples at
    ``default_radii``, whose 1 - r halves from one radius to the next."""
    vals = [complex(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two samples to extrapolate")
    # 1.0 * a: a float times a complex rounds as complex * complex, as 2.0 * b does
    ext = [2.0 * b - 1.0 * a for a, b in zip(vals, vals[1:])]
    if len(ext) == 1:
        return Extrapolation(ext[0], abs(ext[0] - vals[-1]), tuple(ext))
    diffs = [abs(ext[i + 1] - ext[i]) for i in range(len(ext) - 1)]
    best = min(range(len(diffs)), key=diffs.__getitem__)
    value = ext[best + 1]
    error = diffs[best]
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        error = math.inf
    return Extrapolation(value, error, tuple(ext))
