"""Infinitesimal generators and Herglotz vector fields.

Three field variants are supported, all in Berkson-Porta form
G(z, t) = (tau - z)(1 - conj(tau) z) p(z, t) with Re p >= 0:

* ``BerksonPortaField``: p is a constant with positive real part, an
  atomic Herglotz transform, or a schedule of such transforms.
* ``ReciprocalField``: p is the reciprocal of an atomic Herglotz
  transform, which plants boundary null points at the atoms.
* ``CorollaryField``: the specific normalized field
  G(z, t) = (1/4) (1 - z)^2 (1 + z) q(z, t) driven by a schedule of
  probability measures excluding angle 0; it has Denjoy-Wolff point 1
  and a boundary regular null point at -1 with unit null quotient.

Every variant describes its own field data through one interface, so
no other module branches on the class: ``tau`` is the Denjoy-Wolff
point, ``null_points`` the prescribed boundary null points,
``breakpoints(s, t)`` the kernel's switching times in (s, t), and
``expected_dilation(point, s, t)`` the dilation of phi_{s,t} at a
prescribed point, or at tau on the circle, that the data implies.
``windows`` cuts [s, t] at the breakpoints for every integrator and
every time integral; ``exp_integral``, exp of a rate integrated over
those windows, gives the implied dilations, whose rate is the exact
field derivative ``KernelData.derivative_at``; ``match_point`` names the
field point that a given circle point stands for.  The classes stay
apart for their validation, ``to_dict`` and expectations; their kernels
are one ``KernelData``.

Fields are immutable; evaluation is pure.  Within one schedule segment
every variant is constant in time, which the integrator exploits via
``frozen_at``: each variant describes the segment's kernel as
``KernelData`` (``kernel_data(t)``: its formula, tau, and the atoms of
the window's measure), and ``frozen_at(t)`` is that data's numpy kernel.
It packs the atoms once, as ``(m, 1)`` numpy columns, evaluates every
atom term of an array state in one broadcast expression and adds the
terms in one pass.  The callable carries that data as its
``kernel_data``, and the compiled RK4 and Dormand-Prince windows read it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .disk import ANGLE_GAP, BoundaryPoint, on_circle
from .errors import ConfigError, ValidationError
from .measures import (
    AtomicCircleMeasure,
    JsonObject,
    MeasureSchedule,
    ScheduleSegment,
    circle_measure,
)


def _herglotz_term(s, w, z):
    """One atom of the Herglotz transform: w (s + z)/(s - z)."""
    return w * (s + z) / (s - z)


def _q_term(k, wk, z):
    """One atom of the corollary q, with wk = w (1 - k) precomputed."""
    return wk / (1.0 + k * z)


def _atom_sum(term, start: complex, atoms) -> Callable:
    """The kernel z -> start + sum_j term(a_j, b_j, z) over the atoms
    (a_j, b_j), packed once.

    The terms are added one by one in atom order after ``start``, the
    order of the term-by-term reference formulas the tests keep
    (``tests/reference.py``), so results agree to the bit.  An array state
    gets all terms from one broadcast over ``(m, 1)`` atom columns and a
    running sum over axis 0; ``np.add.reduce`` would not do, as it sums
    a one-point state pairwise and adds its initial value last.
    """
    atoms = tuple(atoms)
    a = np.array([x for x, _ in atoms], dtype=complex)[:, None]
    b = np.array([y for _, y in atoms])[:, None]

    def kernel(z):
        if not isinstance(z, np.ndarray):
            acc = start
            for x, y in atoms:
                acc = acc + term(x, y, z)
            return acc
        if z.ndim != 1:
            return kernel(z.reshape(-1)).reshape(z.shape)
        if not atoms:
            return start + np.zeros_like(z)
        terms = term(a, b, z)
        terms[0] += start
        return np.add.accumulate(terms, axis=0, out=terms)[-1]

    return kernel


def _herglotz_start(imag_const: float) -> complex:
    # + 0j turns the real part of 1j * c, -0.0 for c < 0, into the +0.0
    # that the reference sum over a zero-filled array starts from
    return 1j * imag_const + 0j


def _constant(c: complex) -> Callable:
    return lambda z: c if not isinstance(z, np.ndarray) else np.full_like(z, c)


class KernelData(NamedTuple):
    """The field kernel of one window as plain numbers.  ``kernel()``
    evaluates it in numpy, and the compiled RK4 and Dormand-Prince
    windows (``_rk4.c``) evaluate the same expressions in the same order.

    ``kind`` names the formula: ``"bp_const"`` and ``"bp_herglotz"`` are
    (tau - z)(1 - conj(tau) z) p(z), ``"reciprocal"`` divides by p(z)
    instead, and ``"corollary"`` is (1/4)(1 - z)^2 (1 + z) q(z).  ``start``
    is the constant p of ``"bp_const"``, or else the constant term of the
    atom sum, and ``atoms`` the (a_j, b_j) pairs of its terms:
    b (a + z)/(a - z) for a Herglotz sum, b/(1 + a z) for q.
    """

    kind: str
    tau: complex
    start: complex
    atoms: tuple[tuple[complex, complex], ...]

    def kernel(self) -> Callable:
        """G as a callable of z, a Python complex or a numpy array.  The
        callable carries this data as its ``kernel_data``, which lets the
        integrator run a window of it in one compiled call."""
        g = self._formula()
        g.kernel_data = self
        return g

    def _formula(self) -> Callable:
        if self.kind == "corollary":
            q = _atom_sum(_q_term, self.start, self.atoms)
            return lambda z: 0.25 * (1.0 - z) ** 2 * (1.0 + z) * q(z)
        tau, taub = self.tau, self.tau.conjugate()
        if self.kind == "bp_const":
            p = _constant(self.start)
        else:
            p = _atom_sum(_herglotz_term, self.start, self.atoms)
        if self.kind == "reciprocal":
            return lambda z: (tau - z) * (1.0 - taub * z) / p(z)
        return lambda z: (tau - z) * (1.0 - taub * z) * p(z)

    def derivative_at(self, point: BoundaryPoint):
        """G'(point) in closed form at a circle point (within ``MATCH_TOL``)
        where G vanishes: an atom of a ``"reciprocal"`` kernel or tau on
        the circle.  None elsewhere, and always for ``"corollary"``, whose
        expectations keep the paper's normalisation.

        With B(z) = (tau - z)(1 - conj(tau) z) and the reciprocal's
        h(z) = sum_j alpha_j (sigma_j + z)/(sigma_j - z), G = B/h has
        G'(sigma_k) = -B(sigma_k)/(2 alpha_k sigma_k) = |sigma_k - tau|^2/(2 alpha_k).
        B vanishes twice at tau on the circle, so G'(tau) = 0 unless h has a
        zero there (|h(tau)/h'(tau)| <= MATCH_TOL): then G'(tau) =
        conj(tau)/h'(tau), h'(z) = sum_j 2 alpha_j sigma_j/(sigma_j - z)^2.
        """
        if self.kind == "corollary":
            return None
        tau, taub = self.tau, self.tau.conjugate()
        if self.kind == "reciprocal":
            sigmas = {BoundaryPoint.from_complex(s): (s, a) for s, a in self.atoms}
            hit = match_point(point, sigmas)
            if hit is not None:
                s, alpha = sigmas[hit]
                return -(tau - s) * (1.0 - taub * s) / (2.0 * alpha * s)
        if not on_circle(tau) or match_point(point, (BoundaryPoint.from_complex(tau),)) is None:
            return None
        if self.kind == "reciprocal":
            h = _atom_sum(_herglotz_term, self.start, self.atoms)(tau)
            dh = sum(2.0 * a * s / (s - tau) ** 2 for s, a in self.atoms)
            if abs(h / dh) <= MATCH_TOL:
                return taub / dh
        return 0j


def _frozen_at(spec, t: float) -> Callable:
    """G at time t, within one schedule segment constant in time, as a
    callable of z: ``kernel_data(t).kernel()``."""
    return spec.kernel_data(t).kernel()


def _require_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not abs(tau) <= 1.0 + 1e-12:  # also rejects a NaN tau
        raise ValidationError(f"tau must lie in the closed disk, got |tau| = {abs(tau)}")
    return tau


def _require_p_const(p: complex) -> complex:
    p = complex(p)
    if not p.real > 0.0:
        raise ValidationError("constant p needs Re p > 0")
    return p


def _require_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValidationError("alpha coefficients must be positive")
    return alpha


def _tau_clear_of_atoms(tau: complex, positions) -> None:
    if not on_circle(tau):
        return
    t = BoundaryPoint.from_complex(tau)
    for p in positions:
        if t.gap(p) <= ANGLE_GAP:
            raise ValidationError("tau coincides with a prescribed boundary point")


#: angular slack within which a circle point names a point of the field data
MATCH_TOL = 1e-9


def match_point(point: BoundaryPoint, candidates):
    """The first circle point of ``candidates`` within MATCH_TOL of ``point``, or None."""
    return next((c for c in candidates if point.gap(c) <= MATCH_TOL), None)


def windows(spec, s: float, t: float):
    """The windows (a, b, u) of [s, t] cut at ``spec.breakpoints(s, t)``,
    in order, each with a < b and u = (a + b)/2, the time its kernel is
    read at."""
    cuts = [s] + spec.breakpoints(s, t) + [t]
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            yield a, b, 0.5 * (a + b)


def exp_integral(spec, s: float, t: float, rate: Callable):
    """exp of the sum of rate(u) (b - a) over the ``windows`` of [s, t], in
    order; None as soon as a rate(u) is None."""
    total = 0.0
    for a, b, u in windows(spec, s, t):
        r = rate(u)
        if r is None:
            return None
        total += r * (b - a)
    return math.exp(total)


def _integrated_derivative(spec, point: BoundaryPoint, s: float, t: float):
    """Dilation of phi_{s,t} at a circle point implied by the field data:
    exp of the time integral of Re G_u'(point); None where some window's
    G does not vanish at the point (``KernelData.derivative_at``)."""
    def rate(u):
        d = spec.kernel_data(u).derivative_at(point)
        return None if d is None else d.real
    return exp_integral(spec, s, t, rate)


_ORIGIN = BoundaryPoint(0.0)


def _corollary_segment_fault(schedule: MeasureSchedule):
    """(index, reason) of the first segment whose measure is not a
    probability measure declaring angle 0 as excluded, or None."""
    for i, seg in enumerate(schedule.segments):
        mu = seg.measure
        if not mu.is_probability():
            return i, f"probability mass != 1 (total {mu.total_mass!r})"
        if mu.excluded is None or mu.excluded.gap(_ORIGIN) > ANGLE_GAP:
            return i, "measure must exclude angle 0"
    return None


@dataclass(frozen=True)
class BerksonPortaField:
    """G(z, t) = (tau - z)(1 - conj(tau) z) p(z, t)."""

    tau: complex
    p_const: complex | None = None
    p_measure: AtomicCircleMeasure | None = None
    p_schedule: MeasureSchedule | None = None
    imag_const: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _require_tau(self.tau))
        given = [v is not None for v in (self.p_const, self.p_measure, self.p_schedule)]
        if sum(given) != 1:
            raise ValidationError("give exactly one of p_const, p_measure, p_schedule")
        if self.p_const is not None:
            object.__setattr__(self, "p_const", _require_p_const(self.p_const))
            if self.imag_const != 0.0:
                raise ValidationError("imag_const needs p_measure or p_schedule")
        if self.p_measure is not None:
            _tau_clear_of_atoms(self.tau, (a.position for a in self.p_measure.atoms))
        if self.p_schedule is not None:
            for seg in self.p_schedule.segments:
                _tau_clear_of_atoms(self.tau, (a.position for a in seg.measure.atoms))

    #: the data prescribes no boundary null points
    null_points = ()
    expected_dilation = _integrated_derivative

    def breakpoints(self, s: float, t: float) -> list[float]:
        return [] if self.p_schedule is None else self.p_schedule.breakpoints(s, t)

    def _atoms_at(self, t: float):
        mu = self.p_measure if self.p_measure is not None else self.p_schedule.measure_at(t)
        return tuple((a.position.value, a.weight) for a in mu.atoms)

    def kernel_data(self, t: float) -> KernelData:
        if self.p_const is not None:
            return KernelData("bp_const", self.tau, self.p_const, ())
        return KernelData("bp_herglotz", self.tau, _herglotz_start(self.imag_const),
                          self._atoms_at(t))

    frozen_at = _frozen_at

    def to_dict(self) -> dict:
        if self.p_const is not None:
            p = {"const_re": self.p_const.real, "const_im": self.p_const.imag}
        elif self.p_measure is not None:
            p = {"measure": self.p_measure.to_dict(), "imag_const": self.imag_const}
        else:
            p = {"schedule": self.p_schedule.to_dict(), "imag_const": self.imag_const}
        return {"kind": "berkson_porta", "tau": _tau_to_dict(self.tau), "p": p}


@dataclass(frozen=True)
class ReciprocalField:
    """G(z) = (tau - z)(1 - conj(tau) z) / p(z) with
    p(z) = sum_j alpha_j (sigma_j + z)/(sigma_j - z).

    The prescribed points sigma_j are zeros of G, hence boundary regular
    null points of the generated semiflow; p is zero-free on the disk
    because Re p > 0 there.
    """

    tau: complex
    data: tuple[tuple[BoundaryPoint, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _require_tau(self.tau))
        data = tuple((p, _require_alpha(a)) for p, a in self.data)
        object.__setattr__(self, "data", data)
        if not data:
            raise ValidationError("need at least one (sigma, alpha) pair")
        pts = [p for p, _ in data]
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                if p.gap(q) <= ANGLE_GAP:
                    raise ValidationError("prescribed sigma points must be distinct")
        _tau_clear_of_atoms(self.tau, pts)

    expected_dilation = _integrated_derivative

    @property
    def null_points(self) -> tuple[BoundaryPoint, ...]:
        return tuple(p for p, _ in self.data)

    def breakpoints(self, s: float, t: float) -> list[float]:
        return []

    def _atoms(self):
        return tuple((p.value, a) for p, a in self.data)

    def kernel_data(self, t: float) -> KernelData:
        return KernelData("reciprocal", self.tau, _herglotz_start(0.0), self._atoms())

    frozen_at = _frozen_at

    def to_dict(self) -> dict:
        return {
            "kind": "reciprocal",
            "tau": _tau_to_dict(self.tau),
            "data": [{"angle": p.angle, "alpha": a} for p, a in self.data],
        }


@dataclass(frozen=True)
class CorollaryField:
    """G(z, t) = (1/4)(1 - z)^2 (1 + z) q(z, t) with
    q(z, t) = sum_j w_j (1 - kappa_j)/(1 + kappa_j z) over a scheduled
    probability measure on the circle minus the point 1."""

    schedule: MeasureSchedule
    check: InitVar[bool] = True

    tau = 1.0 + 0j
    null_points = (BoundaryPoint(math.pi),)

    def __post_init__(self, check: bool) -> None:
        fault = _corollary_segment_fault(self.schedule) if check else None
        if fault is not None:
            raise ValidationError(f"corollary schedule segment {fault[0]}: {fault[1]}")

    def breakpoints(self, s: float, t: float) -> list[float]:
        return self.schedule.breakpoints(s, t)

    def _q_atoms_at(self, t: float):
        atoms = [(a.position.value, a.weight) for a in self.schedule.measure_at(t).atoms]
        return tuple((k, w * (1.0 - k)) for k, w in atoms)

    def kernel_data(self, t: float) -> KernelData:
        return KernelData("corollary", self.tau, 0j, self._q_atoms_at(t))

    frozen_at = _frozen_at

    def expected_dilation(self, point: BoundaryPoint, s: float, t: float):
        """e^(t-s) at angle pi and exp(-integral of the scheduled mass at
        angle pi) at angle 0; None elsewhere.  A non-probability schedule
        forced past validation will disagree with the measured map, which
        is the point of the comparison."""
        (pi,) = self.null_points
        if match_point(point, (pi,)) is not None:
            return math.exp(t - s)
        if match_point(point, (_ORIGIN,)) is not None:
            return exp_integral(self, s, t, lambda u: -self.schedule.measure_at(u).mass_at(pi))
        return None

    def to_dict(self) -> dict:
        return {"kind": "corollary", "schedule": self.schedule.to_dict()}


FieldSpec = Union[BerksonPortaField, ReciprocalField, CorollaryField]


def kernel_probe_fields() -> tuple:
    """One field of each ``KernelData`` kind, with atoms off any grid, for
    checking a compiled kernel against ``frozen_at`` on [0, 1)."""
    pairs = ((0.7, 0.5), (2.4, 1.5), (4.4, 0.25))
    probability = ((a, w / 2.25) for a, w in pairs)
    return (
        BerksonPortaField(0.3 - 0.4j, p_const=0.8 + 0.3j),
        BerksonPortaField(BoundaryPoint(5.5).value, p_measure=circle_measure(pairs),
                          imag_const=-0.7),
        ReciprocalField(0.2j, tuple((BoundaryPoint(a), w) for a, w in pairs)),
        CorollaryField(MeasureSchedule((ScheduleSegment(
            0.0, 1.0, circle_measure(probability, excluded_angle=0.0)),))),
    )


def _tau_to_dict(tau: complex) -> dict:
    """``{angle}`` if tau is on the circle and that angle reads back to tau
    bit for bit, else ``{re, im}``: it reads back to the tau integrated."""
    if on_circle(tau):
        angle = BoundaryPoint.from_complex(tau).angle
        if repr(BoundaryPoint(angle).value) == repr(tau):
            return {"angle": angle}
    return {"re": tau.real, "im": tau.imag}


def _tau_from_dict(d: dict, ptr: str) -> complex:
    """tau is ``{angle}`` on the circle or ``{re, im}`` in the closed disk."""
    with JsonObject(d, ptr) as r:
        if "angle" in r:
            return BoundaryPoint(r.read("angle", float)).value
        return _require_tau(complex(r.read("re", float), r.read("im", float)))


def _p_from_dict(d: dict, ptr: str) -> dict:
    """The ``BerksonPortaField`` keywords of p: exactly one of
    ``{const_re[, const_im]}``, ``{measure[, imag_const]}`` and
    ``{schedule[, imag_const]}``; a member of a second form is unknown."""
    with JsonObject(d, ptr) as r:
        if "const_re" in r:
            re = r.read("const_re", float, _require_p_const).real
            return {"p_const": complex(re, r.read("const_im", float, default=0.0))}
        for name, reader in (("measure", AtomicCircleMeasure.from_dict),
                             ("schedule", MeasureSchedule.from_dict)):
            if name in r:
                return {f"p_{name}": r.read(name, dict, reader),
                        "imag_const": r.read("imag_const", float, default=0.0)}
        raise ValidationError("p must give const_re, measure or schedule")


def _reciprocal_entry(d: dict, ptr: str) -> tuple[BoundaryPoint, float]:
    with JsonObject(d, ptr) as r:
        alpha = r.read("alpha", float, _require_alpha)
        return BoundaryPoint(r.read("angle", float)), alpha


def field_from_dict(d: dict, validate: bool = True, ptr: str = "") -> FieldSpec:
    """Read ``to_dict`` output; ``ptr`` is the JSON pointer of ``d``.  A
    member that is missing, unknown, of the wrong JSON type or out of
    range, a malformed schedule and a corollary segment that breaks the
    corollary rule raise ConfigError where they sit.  ``validate=False``
    skips the corollary rule."""
    with JsonObject(d, ptr) as r:
        kind = r.read("kind", str)
        if kind == "berkson_porta":
            p = r.read("p", dict, _p_from_dict)
            return BerksonPortaField(r.read("tau", dict, _tau_from_dict), **p)
        if kind == "reciprocal":
            data = r.items("data", dict, _reciprocal_entry)
            return ReciprocalField(r.read("tau", dict, _tau_from_dict), data)
        if kind == "corollary":
            sched = r.read("schedule", dict, MeasureSchedule.from_dict)
            fault = _corollary_segment_fault(sched) if validate else None
            if fault is not None:
                raise ConfigError(fault[1], pointer=(
                    f"{r.pointer('schedule')}/segments/{fault[0]}/measure"))
            return CorollaryField(sched, check=False)
        raise ConfigError(f"unknown field kind {kind!r}", pointer=r.pointer("kind"))
