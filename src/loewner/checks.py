"""The verification suite: one registered check per desk-checkable
property of the computed evolution families.

Each check is declared once, by ``@check(tolerance=...)`` on a function
whose name is the check's name.  The tolerance is its default, a config
can override it, and reports record the tolerance used.  The body
returns ``(max_residual, worst_input, notes)``, and the registration
alone builds the outcome: it passes iff the residual is <= the
tolerance, and it fails on a None residual (the notes say why) or on a
``LoewnerError`` ("failed to evaluate: ...").  A body whose premise does
not hold raises ``NotApplicable``; the check then reads pass with
residual 0.0 and notes "not applicable: ...".

Every check reads the configured flow, fixed points and window; none
evaluates fixed instances of its own.  The dilation table holds the
measured boundary dilations that several checks share: at each listed
fixed point and at a Denjoy-Wolff point on the circle, listed or not.

Checks run one after another in name order and no check depends on which
ran before it; the report is sorted by check name.  LOEWNER_THREADS is
accepted and ignored: the former check thread pool was bound by the
interpreter lock and measured slower.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .boundary import check_arc_length, check_julia, dilation_curve
from .config import ROLE_DW, RunConfig, config_digest
from .disk import BoundaryPoint, CayleyMap, on_circle, pseudo_hyperbolic_distance
from .errors import LoewnerError
from .generators import FieldSpec
from .grids import disk_grid_100, random_interior_pairs, upper_half_plane_grid
from .integrate import evolution_map, evolve, evolve_at, rk4_oracle

_PI = math.pi


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    max_residual: float | None
    tolerance_used: float
    worst_input: dict | None = None
    notes: str = ""

    def to_dict(self) -> dict:
        residual, notes = self.max_residual, self.notes
        if residual is not None and not math.isfinite(residual):
            residual = None
            notes = (notes + "; " if notes else "") + "residual non-finite"
        return {
            "name": self.name,
            "pass": self.passed,
            "max_residual": residual,
            "tolerance_used": self.tolerance_used,
            "worst_input": self.worst_input,
            "notes": notes,
        }


@dataclass
class VerificationReport:
    checks: list[CheckOutcome]
    config_digest: str
    versions: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "config_digest": self.config_digest,
            "versions": self.versions,
        }


def emit_report(report: VerificationReport) -> bytes:
    """Canonical JSON: sorted keys, shortest round-trip floats, trailing
    newline; byte-identical across runs and thread counts."""
    payload = json.dumps(
        report.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return (payload + "\n").encode()


def _zdict(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


class CheckContext:
    """Shared evaluation state for one verification run."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.field: FieldSpec = config.field
        self.s = config.integration.t0
        self.t = config.integration.t1
        self.tol = config.integration.tolerances()
        self.grid = config.grid.points()
        self.mid = 0.5 * (self.s + self.t)
        #: sample times of dilation_monotone and of dilation_tracking
        self.monotone_times = [float(u) for u in np.linspace(self.s, self.t, 21)]
        self.tracking_times = [u for u in (self.s + f * (self.t - self.s)
                                           for f in (0.25, 0.5, 0.75, 1.0)) if u > self.s]
        #: the Denjoy-Wolff point as a circle point, None if it is interior
        tau = self.field.tau
        self.boundary_tau = BoundaryPoint.from_complex(tau) if on_circle(tau) else None

    def tolerance(self, name: str) -> float:
        return float(self.config.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    @cached_property
    def _dilation_table(self) -> dict:
        """(s, t, angle) -> measured dilation of phi_{s,t} at each
        prescribed point and at a Denjoy-Wolff point on the circle, listed
        or not; None where the estimate diverged.

        One radial sweep per point from s over every time a check reads,
        and one from the midpoint to t for the chain rule, so the values
        do not depend on which check asks first.
        """
        times = sorted({*self.monotone_times, *self.tracking_times, self.mid, self.t})
        points = {fp.point.angle: fp.point for fp in self.config.fixed_points}
        if self.boundary_tau is not None:
            points.setdefault(self.boundary_tau.angle, self.boundary_tau)
        table = {}
        for angle, point in points.items():
            for start, ts in ((self.s, times), (self.mid, [self.t])):
                for u, d in dilation_curve(self.field, point, ts, self.tol, s=start):
                    table[(start, u, angle)] = None if math.isnan(d) else d
        return table

    def measured_dilation(self, s: float, t: float, point: BoundaryPoint):
        return self._dilation_table[(s, t, point.angle)]


#: check name -> ctx -> CheckOutcome, filled by ``@check`` below
CHECKS: dict = {}
DEFAULT_TOLERANCES: dict[str, float] = {}


class NotApplicable(Exception):
    """Raised by a check body whose premise does not hold, saying which."""


def check(*, tolerance: float):
    """Register the body under its name; the module docstring has the rules."""

    def register(body):
        name = body.__name__

        def run(ctx: CheckContext) -> CheckOutcome:
            tol = ctx.tolerance(name)
            try:
                residual, worst_input, notes = body(ctx)
            except NotApplicable as why:
                return CheckOutcome(name, True, 0.0, tol, notes=f"not applicable: {why}")
            except LoewnerError as exc:
                return CheckOutcome(name, False, None, tol, notes=f"failed to evaluate: {exc}")
            passed = residual is not None and residual <= tol
            return CheckOutcome(name, passed, residual, tol, worst_input, notes)

        CHECKS[name] = run
        DEFAULT_TOLERANCES[name] = tolerance
        return run

    return register


class _Worst:
    """The largest residual offered and its input; a tie keeps the first."""

    def __init__(self, residual: float = -math.inf):
        self.residual, self.where = residual, None

    def offer(self, residual: float, where: dict) -> None:
        if residual > self.residual:
            self.residual, self.where = residual, where


#: default boundary arc for the arc-length check; the lower semicircle
#: minus a margin keeps clear of the DW point at angle 0 and of kernel
#: poles in the upper semicircle for the shipped examples
_DEFAULT_ARC = (_PI + 0.2, 2.0 * _PI - 0.2)


@check(tolerance=1e-8)
def semigroup(ctx: CheckContext):
    s, t, z = ctx.s, ctx.t, ctx.grid
    ident = evolution_map(ctx.field, s, s, ctx.tol)(z)
    worst = _Worst(float(np.max(np.abs(ident - z))))  # EF1 must hold exactly
    direct = evolve(ctx.field, s, t, z, ctx.tol) if t > s else z
    for frac in (0.25, 0.5, 0.75):
        u = s + frac * (t - s)
        if not s < u < t:
            continue
        through = evolve(ctx.field, u, t, evolve(ctx.field, s, u, z, ctx.tol), ctx.tol)
        resid = np.abs(through - direct)
        i = int(np.argmax(resid))
        worst.offer(float(resid[i]), {"z": _zdict(z[i]), "u": u})
    return worst.residual, worst.where, "EF1 exact; EF2 residual over u in {1/4,1/2,3/4}"


@check(tolerance=0.0)
def disk_invariance(ctx: CheckContext):
    worst = _Worst()
    times = [float(u) for u in np.linspace(ctx.s, ctx.t, 9)[1:]]
    for u, w in zip(times, evolve_at(ctx.field, ctx.s, times, ctx.grid, ctx.tol)):
        mods = np.abs(w)
        i = int(np.argmax(mods))
        # strictness margin: |w| must stay below 1 - 1e-14
        worst.offer(float(mods[i]) - (1.0 - 1e-14), {"z": _zdict(ctx.grid[i]), "t": u})
    return worst.residual, worst.where, "residual = max |w| - (1 - 1e-14); strict disk invariance"


@check(tolerance=1e-10)
def schwarz_pick(ctx: CheckContext):
    pairs = random_interior_pairs(100)
    z1 = np.asarray([p[0] for p in pairs])
    z2 = np.asarray([p[1] for p in pairs])
    w1 = evolve(ctx.field, ctx.s, ctx.t, z1, ctx.tol)
    w2 = evolve(ctx.field, ctx.s, ctx.t, z2, ctx.tol)
    worst = _Worst()
    for a, b, wa, wb in zip(z1, z2, w1, w2):
        worst.offer(pseudo_hyperbolic_distance(wa, wb) - pseudo_hyperbolic_distance(a, b),
                    {"z1": _zdict(a), "z2": _zdict(b)})
    return worst.residual, worst.where, "pseudo-hyperbolic contraction on 100 seeded pairs"


@check(tolerance=1e-8)
def julia(ctx: CheckContext):
    fps = ctx.config.fixed_points
    if not fps:
        raise NotApplicable("no prescribed fixed points")
    bounds = []
    for fp in fps:
        expected = ctx.field.expected_dilation(fp.point, ctx.s, ctx.t)
        if expected is None:
            return None, None, f"no finite expected dilation at angle {fp.point.angle}"
        bounds.append(expected * (1.0 + 1e-6))
    grid = disk_grid_100()
    images = evolution_map(ctx.field, ctx.s, ctx.t, ctx.tol)(grid)  # once for every point
    worst, notes = _Worst(), []
    for fp, bound in zip(fps, bounds):
        violation, at = check_julia(lambda z: images, fp.point, fp.point, bound, grid)
        notes.append(f"angle {fp.point.angle:.6g}: A={bound:.12g}")
        worst.offer(violation, {"z": _zdict(at), "angle": fp.point.angle})
    return worst.residual, worst.where, "; ".join(notes)


@check(tolerance=1e-6)
def cowen_pommerenke(ctx: CheckContext):
    fps = ctx.config.fixed_points
    if len(fps) < 2:
        raise NotApplicable("needs two prescribed fixed points")
    dil = {}
    for fp in fps:
        d = ctx.measured_dilation(ctx.s, ctx.t, fp.point)
        if d is None:
            return None, None, f"dilation diverged at angle {fp.point.angle}"
        dil[fp.point.angle] = d
    worst = _Worst()
    angles = sorted(dil)
    for i, a in enumerate(angles):
        for b in angles[i + 1:]:
            worst.offer(1.0 - dil[a] * dil[b], {"angles": [a, b], "product": dil[a] * dil[b]})
    return worst.residual, worst.where, "residual = 1 - product of measured dilations"


@check(tolerance=1e-3)
def dilation_tracking(ctx: CheckContext):
    fps = ctx.config.fixed_points
    if not fps:
        raise NotApplicable("no prescribed fixed points")
    worst = _Worst()
    for fp in fps:
        for u in ctx.tracking_times:
            expected = ctx.field.expected_dilation(fp.point, ctx.s, u)
            measured = ctx.measured_dilation(ctx.s, u, fp.point)
            if expected is None or measured is None:
                return None, None, f"divergence at angle {fp.point.angle}, t={u}"
            worst.offer(abs(measured - expected) / max(abs(expected), 1e-30),
                        {"angle": fp.point.angle, "t": u,
                         "measured": measured, "expected": expected})
    return worst.residual, worst.where, "relative error of measured vs data-implied dilation"


@check(tolerance=1e-4)
def dilation_monotone(ctx: CheckContext):
    fps = ctx.config.fixed_points
    tau = ctx.field.tau
    interior_dw = ctx.boundary_tau is None
    if not fps and not interior_dw:
        raise NotApplicable("no prescribed fixed points")
    ts = ctx.monotone_times
    worst = _Worst()
    for fp in fps:
        vals = []
        for u in ts:
            d = ctx.measured_dilation(ctx.s, u, fp.point)
            if d is None:
                return None, None, f"dilation diverged at angle {fp.point.angle}"
            vals.append(d)
        if fp.role == ROLE_DW:
            for u, d in zip(ts, vals):
                worst.offer(d - 1.0, {"angle": fp.point.angle, "t": u, "kind": "range"})
                worst.offer(-d, {"angle": fp.point.angle, "t": u, "kind": "positivity"})
            for ub, a, b in zip(ts[1:], vals, vals[1:]):
                worst.offer((b - a) / max(a, 1.0),
                            {"angle": fp.point.angle, "t": ub, "kind": "non-increasing"})
        else:
            for ub, a, b in zip(ts[1:], vals, vals[1:]):
                worst.offer((a - b) / max(a, 1.0),
                            {"angle": fp.point.angle, "t": ub, "kind": "non-decreasing"})
    if interior_dw:
        # interior DW point: |d/dz phi_{s,t}| at tau via central differences
        h = 1e-5
        probes = np.asarray([tau + h, tau - h])
        prev = None
        for u, w in zip(ts, evolve_at(ctx.field, ctx.s, ts, probes, ctx.tol)):
            mod = abs((w[0] - w[1]) / (2.0 * h))
            if prev is not None:
                worst.offer(mod - prev - 1e-9, {"t": u, "kind": "interior-derivative"})
            prev = mod
    return (worst.residual, worst.where,
            "grid proxy for monotone, locally absolutely continuous dilation curves; "
            "finite samples cannot certify absolute continuity")


@check(tolerance=1e-3)
def chain_rule(ctx: CheckContext):
    fps = ctx.config.fixed_points
    if not fps or ctx.t <= ctx.s:
        raise NotApplicable("needs fixed points and t1 > t0")
    worst = _Worst()
    for fp in fps:
        full = ctx.measured_dilation(ctx.s, ctx.t, fp.point)
        left = ctx.measured_dilation(ctx.s, ctx.mid, fp.point)
        right = ctx.measured_dilation(ctx.mid, ctx.t, fp.point)
        if None in (full, left, right):
            return None, None, f"dilation diverged at angle {fp.point.angle}"
        worst.offer(abs(full - left * right) / abs(full),
                    {"angle": fp.point.angle, "full": full, "split": left * right})
    return (worst.residual, worst.where,
            "|phi'_{s,t} - phi'_{s,u} phi'_{u,t}| / phi'_{s,t} at u = midpoint")


@check(tolerance=1e-6)
def arc_lemma(ctx: CheckContext):
    if ctx.t <= ctx.s:
        raise NotApplicable("empty time window")
    flow = evolution_map(ctx.field, ctx.s, ctx.t, ctx.tol)
    try:
        len_arc, len_image, note = check_arc_length(flow, _DEFAULT_ARC, samples=2048)
    except LoewnerError as exc:
        raise NotApplicable(f"boundary flow unavailable ({exc})") from exc
    if note:
        raise NotApplicable(note)
    return (len_arc - len_image,
            {"arc": list(_DEFAULT_ARC), "len_arc": len_arc, "len_image": len_image},
            "domain arc must not exceed its boundary image in length")


@check(tolerance=1e-8)
def oracle_agreement(ctx: CheckContext):
    pts = ctx.grid[::max(1, ctx.grid.size // 16)][:16]  # at most 16 points
    adaptive = evolve(ctx.field, ctx.s, ctx.t, pts, ctx.tol)
    fixed = rk4_oracle(ctx.field, ctx.s, ctx.t, pts, 100000)
    resid = np.abs(adaptive - fixed)
    i = int(np.argmax(resid))
    return (float(resid[i]), {"z": _zdict(pts[i])},
            "adaptive solver vs fixed-step RK4 with 1e5 steps")


def _tau_dilation(ctx: CheckContext):
    """(tau on the circle, measured phi'_{s,t}(tau)); NotApplicable for an
    interior Denjoy-Wolff point, whose multiplier is not a dilation."""
    tau = ctx.boundary_tau
    if tau is None:
        raise NotApplicable("Denjoy-Wolff point inside the disk")
    return tau, ctx.measured_dilation(ctx.s, ctx.t, tau)


@check(tolerance=1e-6)
def half_plane_julia(ctx: CheckContext):
    tau, d = _tau_dilation(ctx)
    if d is None:
        return None, None, f"dilation diverged at tau, angle {tau.angle}"
    cayley = CayleyMap(tau)
    w = upper_half_plane_grid()
    image = cayley.forward(evolution_map(ctx.field, ctx.s, ctx.t, ctx.tol)(cayley.inverse(w)))
    margin = 1.0 - d * image.imag / w.imag
    i = int(np.argmax(margin))
    return (float(margin[i]), {"w": _zdict(w[i]), "dilation": d},
            "Julia-Wolff at tau: Im Phi(w) >= Im w / phi'(tau) for Phi = C phi C^-1, "
            "C the Cayley map at tau; residual = max 1 - phi'(tau) Im Phi(w) / Im w")


@check(tolerance=1e-4)
def nevanlinna_beta(ctx: CheckContext):
    tau, measured = _tau_dilation(ctx)
    expected = ctx.field.expected_dilation(tau, ctx.s, ctx.t)
    if measured is None or expected is None:
        return None, None, f"divergence at tau, angle {tau.angle}"
    resid = max(abs(measured - expected) / expected, measured - 1.0)
    return (resid, {"angle": tau.angle, "t": ctx.t, "measured": measured, "expected": expected},
            "phi'(tau) matches the data-implied dilation and is <= 1 (Julia-Wolff)")


CHECK_NAMES = frozenset(CHECKS)


def run_verify(config: RunConfig) -> VerificationReport:
    """Execute every requested check in name order; failures are report
    entries, never exceptions.  Exit-code policy belongs to the CLI."""
    ctx = CheckContext(config)
    outcomes = [CHECKS[n](ctx) for n in sorted(set(config.checks))]
    return VerificationReport(outcomes, config_digest(config), {"loewner": __version__})
