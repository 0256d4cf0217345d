"""The verification suite: one registered check per desk-checkable
property of the computed evolution families.

Registered names: semigroup, disk_invariance, schwarz_pick, julia,
cowen_pommerenke, dilation_tracking, dilation_monotone, chain_rule,
arc_lemma, oracle_agreement, half_plane_julia, nevanlinna_beta.

Default tolerances ship here and can be overridden per config; reports
always record the tolerance used.  Checks run one after another in name
order and no check depends on which ran before it; the report is sorted
by check name.  LOEWNER_THREADS is accepted and ignored: the former check
thread pool was bound by the interpreter lock and measured slower.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .boundary import (
    angular_derivative,
    check_arc_length,
    check_half_plane_julia,
    check_julia,
    dilation_curve,
    normalize_fix_origin,
)
from .config import ROLE_DW, RunConfig
from .disk import BoundaryPoint, pseudo_hyperbolic_distance
from .errors import LoewnerError
from .generators import FieldSpec, build_three_brfp_map
from .grids import disk_grid_100, random_interior_pairs, upper_half_plane_grid
from .integrate import evolution_map, evolve, evolve_at, rk4_oracle
from .measures import RealAtomicMeasure

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


def config_digest(config: RunConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


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

    def tolerance(self, name: str) -> float:
        return float(self.config.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def evaluator(self, s: float, t: float):
        return evolution_map(self.field, s, t, self.tol)

    @cached_property
    def _dilation_table(self) -> dict:
        """(s, t, angle) -> measured dilation of phi_{s,t} at each
        prescribed point, None where the estimate diverged.

        One radial sweep per fixed point from s over every time a check
        reads, and one from the midpoint to t for the chain rule, so the
        values do not depend on which check asks first.
        """
        times = sorted({*self.monotone_times, *self.tracking_times, self.mid, self.t})
        table = {}
        for fp in self.config.fixed_points:
            for start, ts in ((self.s, times), (self.mid, [self.t])):
                for u, d in dilation_curve(self.field, fp.point, ts, self.tol, s=start):
                    table[(start, u, fp.point.angle)] = None if math.isnan(d) else d
        return table

    def measured_dilation(self, s: float, t: float, point: BoundaryPoint):
        return self._dilation_table[(s, t, point.angle)]


DEFAULT_TOLERANCES = {
    "semigroup": 1e-8,
    "disk_invariance": 0.0,
    "schwarz_pick": 1e-10,
    "julia": 1e-8,
    "cowen_pommerenke": 1e-6,
    "dilation_tracking": 1e-3,
    "dilation_monotone": 1e-4,
    "chain_rule": 1e-3,
    "arc_lemma": 1e-6,
    "oracle_agreement": 1e-8,
    "half_plane_julia": 1e-12,
    "nevanlinna_beta": 1e-4,
}

CHECK_NAMES = frozenset(DEFAULT_TOLERANCES)

#: default boundary arc for the arc-length check; the lower semicircle
#: minus a margin keeps clear of the DW point at angle 0 and of kernel
#: poles in the upper semicircle for the shipped examples
_DEFAULT_ARC = (_PI + 0.2, 2.0 * _PI - 0.2)


def _not_applicable(name: str, tol: float, why: str) -> CheckOutcome:
    return CheckOutcome(name, True, 0.0, tol, notes=f"not applicable: {why}")


def _check_semigroup(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("semigroup")
    s, t, z = ctx.s, ctx.t, ctx.grid
    ident = ctx.evaluator(s, s)(z)
    worst = float(np.max(np.abs(ident - z)))  # EF1 must hold exactly
    worst_z = None
    direct = evolve(ctx.field, s, t, z, ctx.tol) if t > s else z
    for frac in (0.25, 0.5, 0.75):
        u = s + frac * (t - s)
        if not s < u < t:
            continue
        through = evolve(ctx.field, u, t, evolve(ctx.field, s, u, z, ctx.tol), ctx.tol)
        resid = np.abs(through - direct)
        i = int(np.argmax(resid))
        if float(resid[i]) > worst:
            worst, worst_z = float(resid[i]), {"z": _zdict(z[i]), "u": u}
    return CheckOutcome("semigroup", worst <= tol, worst, tol, worst_z,
                        "EF1 exact; EF2 residual over u in {1/4,1/2,3/4}")


def _check_disk_invariance(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("disk_invariance")
    s, t = ctx.s, ctx.t
    worst = -math.inf
    worst_in = None
    times = [float(u) for u in np.linspace(s, t, 9)[1:]]
    for u, w in zip(times, evolve_at(ctx.field, s, times, ctx.grid, ctx.tol)):
        mods = np.abs(w)
        i = int(np.argmax(mods))
        # strictness margin: |w| must stay below 1 - 1e-14
        resid = float(mods[i]) - (1.0 - 1e-14)
        if resid > worst:
            worst, worst_in = resid, {"z": _zdict(ctx.grid[i]), "t": u}
    return CheckOutcome("disk_invariance", worst <= tol, worst, tol, worst_in,
                        "residual = max |w| - (1 - 1e-14); strict disk invariance")


def _check_schwarz_pick(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("schwarz_pick")
    pairs = random_interior_pairs(100)
    z1 = np.asarray([p[0] for p in pairs])
    z2 = np.asarray([p[1] for p in pairs])
    w1 = evolve(ctx.field, ctx.s, ctx.t, z1, ctx.tol)
    w2 = evolve(ctx.field, ctx.s, ctx.t, z2, ctx.tol)
    worst = -math.inf
    worst_in = None
    for a, b, wa, wb in zip(z1, z2, w1, w2):
        resid = pseudo_hyperbolic_distance(wa, wb) - pseudo_hyperbolic_distance(a, b)
        if resid > worst:
            worst, worst_in = resid, {"z1": _zdict(a), "z2": _zdict(b)}
    return CheckOutcome("schwarz_pick", worst <= tol, worst, tol, worst_in,
                        "pseudo-hyperbolic contraction on 100 seeded pairs")


def _check_julia(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("julia")
    fps = ctx.config.fixed_points
    if not fps:
        return _not_applicable("julia", tol, "no prescribed fixed points")
    ev = ctx.evaluator(ctx.s, ctx.t)
    grid = disk_grid_100()
    worst = -math.inf
    worst_in = None
    notes = []
    for fp in fps:
        expected = ctx.field.expected_dilation(fp.point, ctx.s, ctx.t)
        if expected is None:
            return CheckOutcome("julia", False, None, tol,
                                notes=f"no finite expected dilation at angle {fp.point.angle}")
        bound = expected * (1.0 + 1e-6)
        res = check_julia(ev, fp.point, fp.point, bound, grid)
        notes.append(f"angle {fp.point.angle:.6g}: A={bound:.12g}")
        if res.max_violation > worst:
            worst = res.max_violation
            worst_in = {"z": _zdict(res.worst_point), "angle": fp.point.angle}
    return CheckOutcome("julia", worst <= tol, worst, tol, worst_in, "; ".join(notes))


def _check_cowen_pommerenke(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("cowen_pommerenke")
    fps = ctx.config.fixed_points
    if len(fps) < 2:
        return _not_applicable("cowen_pommerenke", tol, "needs two prescribed fixed points")
    dil = {}
    for fp in fps:
        d = ctx.measured_dilation(ctx.s, ctx.t, fp.point)
        if d is None:
            return CheckOutcome("cowen_pommerenke", False, None, tol,
                                notes=f"dilation diverged at angle {fp.point.angle}")
        dil[fp.point.angle] = d
    worst = -math.inf
    worst_in = None
    angles = sorted(dil)
    for i, a in enumerate(angles):
        for b in angles[i + 1:]:
            resid = 1.0 - dil[a] * dil[b]
            if resid > worst:
                worst, worst_in = resid, {"angles": [a, b], "product": dil[a] * dil[b]}
    return CheckOutcome("cowen_pommerenke", worst <= tol, worst, tol, worst_in,
                        "residual = 1 - product of measured dilations")


def _check_dilation_tracking(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("dilation_tracking")
    fps = ctx.config.fixed_points
    if not fps:
        return _not_applicable("dilation_tracking", tol, "no prescribed fixed points")
    worst = -math.inf
    worst_in = None
    for fp in fps:
        for u in ctx.tracking_times:
            expected = ctx.field.expected_dilation(fp.point, ctx.s, u)
            measured = ctx.measured_dilation(ctx.s, u, fp.point)
            if expected is None or measured is None:
                return CheckOutcome("dilation_tracking", False, None, tol,
                                    notes=f"divergence at angle {fp.point.angle}, t={u}")
            resid = abs(measured - expected) / max(abs(expected), 1e-30)
            if resid > worst:
                worst = resid
                worst_in = {"angle": fp.point.angle, "t": u,
                            "measured": measured, "expected": expected}
    return CheckOutcome("dilation_tracking", worst <= tol, worst, tol, worst_in,
                        "relative error of measured vs data-implied dilation")


def _check_dilation_monotone(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("dilation_monotone")
    fps = ctx.config.fixed_points
    tau = ctx.field.tau
    interior_dw = abs(tau) < 1.0 - 1e-9
    if not fps and not interior_dw:
        return _not_applicable("dilation_monotone", tol, "no prescribed fixed points")
    ts = ctx.monotone_times
    worst = -math.inf
    worst_in = None

    def track(value, where):
        nonlocal worst, worst_in
        if value > worst:
            worst, worst_in = value, where

    for fp in fps:
        vals = []
        for u in ts:
            d = ctx.measured_dilation(ctx.s, u, fp.point)
            if d is None:
                return CheckOutcome("dilation_monotone", False, None, tol,
                                    notes=f"dilation diverged at angle {fp.point.angle}")
            vals.append(d)
        if fp.role == ROLE_DW:
            for u, d in zip(ts, vals):
                track(d - 1.0, {"angle": fp.point.angle, "t": u, "kind": "range"})
                track(-d, {"angle": fp.point.angle, "t": u, "kind": "positivity"})
            for (ua, a), (ub, b) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
                track((b - a) / max(a, 1.0),
                      {"angle": fp.point.angle, "t": ub, "kind": "non-increasing"})
        else:
            for (ua, a), (ub, b) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
                track((a - b) / max(a, 1.0),
                      {"angle": fp.point.angle, "t": ub, "kind": "non-decreasing"})
    if interior_dw:
        # interior DW point: |d/dz phi_{s,t}| at tau via central differences
        h = 1e-5
        probes = np.asarray([tau + h, tau - h])
        prev = None
        for u, w in zip(ts, evolve_at(ctx.field, ctx.s, ts, probes, ctx.tol)):
            mod = abs((w[0] - w[1]) / (2.0 * h))
            if prev is not None:
                track(mod - prev - 1e-9, {"t": u, "kind": "interior-derivative"})
            prev = mod
    note = ("grid proxy for monotone, locally absolutely continuous dilation curves; "
            "finite samples cannot certify absolute continuity")
    return CheckOutcome("dilation_monotone", worst <= tol, worst, tol, worst_in, note)


def _check_chain_rule(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("chain_rule")
    fps = ctx.config.fixed_points
    if not fps or ctx.t <= ctx.s:
        return _not_applicable("chain_rule", tol, "needs fixed points and t1 > t0")
    mid = ctx.mid
    worst = -math.inf
    worst_in = None
    for fp in fps:
        full = ctx.measured_dilation(ctx.s, ctx.t, fp.point)
        left = ctx.measured_dilation(ctx.s, mid, fp.point)
        right = ctx.measured_dilation(mid, ctx.t, fp.point)
        if None in (full, left, right):
            return CheckOutcome("chain_rule", False, None, tol,
                                notes=f"dilation diverged at angle {fp.point.angle}")
        resid = abs(full - left * right) / abs(full)
        if resid > worst:
            worst = resid
            worst_in = {"angle": fp.point.angle, "full": full, "split": left * right}
    return CheckOutcome("chain_rule", worst <= tol, worst, tol, worst_in,
                        "|phi'_{s,t} - phi'_{s,u} phi'_{u,t}| / phi'_{s,t} at u = midpoint")


def _check_arc_lemma(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("arc_lemma")
    if ctx.t <= ctx.s:
        return _not_applicable("arc_lemma", tol, "empty time window")
    flow = ctx.evaluator(ctx.s, ctx.t)
    try:
        normalized = normalize_fix_origin(flow)
        result = check_arc_length(normalized, _DEFAULT_ARC, samples=2048)
    except LoewnerError as exc:
        return _not_applicable("arc_lemma", tol, f"boundary flow unavailable ({exc})")
    if not result.applicable:
        return _not_applicable("arc_lemma", tol, result.note)
    resid = result.len_arc - result.len_image
    return CheckOutcome(
        "arc_lemma", resid <= tol, resid, tol,
        {"arc": list(_DEFAULT_ARC), "len_arc": result.len_arc,
         "len_image": result.len_image},
        "domain arc must not exceed its boundary image in length",
    )


def _check_oracle_agreement(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("oracle_agreement")
    pts = ctx.grid
    if pts.size > 16:
        stride = max(1, pts.size // 16)
        pts = pts[::stride][:16]
    adaptive = evolve(ctx.field, ctx.s, ctx.t, pts, ctx.tol)
    fixed = rk4_oracle(ctx.field, ctx.s, ctx.t, pts, 100000)
    resid = np.abs(adaptive - fixed)
    i = int(np.argmax(resid))
    return CheckOutcome("oracle_agreement", float(resid[i]) <= tol, float(resid[i]),
                        tol, {"z": _zdict(pts[i])},
                        "adaptive solver vs fixed-step RK4 with 1e5 steps")


def _beta_instances():
    for mass in (0.1, 1.0, 10.0):
        measure = RealAtomicMeasure(((0.0, mass),), (-1.0, 1.0), inside=True)
        targets = (BoundaryPoint(_PI / 2), BoundaryPoint(3 * _PI / 2), BoundaryPoint(0.0))
        yield mass, build_three_brfp_map(-1.0, 1.0, measure, targets)


def _check_half_plane_julia(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("half_plane_julia")
    grid = upper_half_plane_grid()
    worst = -math.inf
    worst_in = None
    for mass, built in _beta_instances():
        v = check_half_plane_julia(built.rep, grid)
        if v > worst:
            worst, worst_in = v, {"mass": mass}
    return CheckOutcome("half_plane_julia", worst <= tol, worst, tol, worst_in,
                        "canonical interior-support transforms; "
                        "residual = max(beta Im z - Im Phi(z))")


def _check_nevanlinna_beta(ctx: CheckContext) -> CheckOutcome:
    tol = ctx.tolerance("nevanlinna_beta")
    worst = -math.inf
    worst_in = None
    for mass, built in _beta_instances():
        expected = 1.0 / (1.0 + mass)
        est = angular_derivative(built, built.tau, built.tau)
        if est.diverged:
            return CheckOutcome("nevanlinna_beta", False, None, tol,
                                notes=f"dilation diverged for mass {mass}")
        resid = abs(est.value - expected) / expected
        resid = max(resid, est.value - 1.0)  # dilation at the DW point stays <= 1
        if resid > worst:
            worst = resid
            worst_in = {"mass": mass, "measured": est.value, "expected": expected}
    return CheckOutcome("nevanlinna_beta", worst <= tol, worst, tol, worst_in,
                        "canonical instances: f'(tau) = 1/(1 + mass) and <= 1")


CHECKS = {
    "semigroup": _check_semigroup,
    "disk_invariance": _check_disk_invariance,
    "schwarz_pick": _check_schwarz_pick,
    "julia": _check_julia,
    "cowen_pommerenke": _check_cowen_pommerenke,
    "dilation_tracking": _check_dilation_tracking,
    "dilation_monotone": _check_dilation_monotone,
    "chain_rule": _check_chain_rule,
    "arc_lemma": _check_arc_lemma,
    "oracle_agreement": _check_oracle_agreement,
    "half_plane_julia": _check_half_plane_julia,
    "nevanlinna_beta": _check_nevanlinna_beta,
}

assert set(CHECKS) == CHECK_NAMES


def _run_one(ctx: CheckContext, name: str) -> CheckOutcome:
    try:
        return CHECKS[name](ctx)
    except LoewnerError as exc:
        return CheckOutcome(name, False, None, ctx.tolerance(name),
                            notes=f"failed to evaluate: {exc}")


def run_verify(config: RunConfig) -> VerificationReport:
    """Execute every requested check in name order; failures are report
    entries, never exceptions.  Exit-code policy belongs to the CLI."""
    ctx = CheckContext(config)
    outcomes = [_run_one(ctx, n) for n in sorted(set(config.checks))]
    return VerificationReport(outcomes, config_digest(config), {"loewner": __version__})
