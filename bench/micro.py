"""Layer microbenchmarks: per-call cost of the field kernels, the two
integrators and the dilation curve, on the fields of the three workload
configs for the run's seed.  Each timing warms up first and reports the
median of several blocks.  The dilation curve is checked against its
closed form e^t."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from tracer import Tracer

BLOCK_S = 0.05
BLOCKS = 7
P16 = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
P1 = 0.3 + 0.2j
CURVE_TIMES = np.linspace(0.1, 2.0, 21)
CURVE_TOL = 1e-6
RK4_STEPS = 500


def _per_call_s(fn, blocks: int = BLOCKS) -> float:
    """Median seconds per call over timed blocks, after one warm-up block."""
    n, t0 = 0, perf_counter()
    while perf_counter() - t0 < BLOCK_S:
        fn()
        n += 1
    times = []
    for _ in range(blocks):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def run_micro(fields: dict) -> tuple[dict, bool]:
    """``fields`` maps corollary, reciprocal and berkson_porta to parsed
    field specs.  Returns (metrics, dilation curve correct)."""
    from loewner.boundary import dilation_curve
    from loewner.disk import BoundaryPoint
    from loewner.integrate import evolve, rk4_oracle

    out = {}
    for kind, spec in fields.items():
        g = spec.frozen_at(0.5)
        out[f"generators.feval_us.{kind}.p1"] = 1e6 * _per_call_s(lambda: g(P1))
        out[f"generators.feval_us.{kind}.p16"] = 1e6 * _per_call_s(lambda: g(P16))

    cor = fields["corollary"]
    out["integrate.rk4_step_us.p16"] = 1e6 * _per_call_s(
        lambda: rk4_oracle(cor, 0.0, 0.5, P16, RK4_STEPS), blocks=3) / RK4_STEPS

    counter = Tracer()
    counter.install()
    try:
        evolve(cor, 0.0, 2.0, P16)
    finally:
        counter.restore()
    attempts = (counter.fevals - counter.windows) / 6
    out["integrate.dp_step_us.p16"] = 1e6 * _per_call_s(
        lambda: evolve(cor, 0.0, 2.0, P16), blocks=3) / attempts

    sigma = BoundaryPoint(math.pi)
    curve = dilation_curve(cor, sigma, CURVE_TIMES)
    ok = all(abs(v - math.exp(t)) <= CURVE_TOL * math.exp(t) for t, v in curve)
    out["boundary.dilation_curve_ms.t21"] = 1e3 * _per_call_s(
        lambda: dilation_curve(cor, sigma, CURVE_TIMES), blocks=3)
    return out, ok
