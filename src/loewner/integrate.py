"""Initial value problem d w / dt = G(w, t), w(s) = z, solved forward in
time to produce evolution-family evaluators.

The workhorse is an embedded Dormand-Prince 4(5) pair with PI step-size
control.  Steps never cross a schedule breakpoint (the field is
discontinuous in t there, and crossing would wreck the order), and any
step landing within ``boundary_guard`` of the unit circle is rejected
and halved rather than projected back, so disk invariance failures are
loud instead of silent.  A classical fixed-step RK4 provides the
independent cross-validation oracle.

Both numpy loops cost dozens of numpy calls per step, so each window of
either integrator runs in one call of a compiled C loop (``_rk4.c``,
loaded by ``_rk4``) that evaluates the same expressions in numpy's
operation order and gives the same bits.  A Dormand-Prince window takes
the compiled path only when the field callable it is given carries its
``kernel_data`` (the callables ``frozen_at`` returns do); any other
callable, such as the boundary flow, which raises ``NotTangentError``
from inside its field, or a wrapper that counts calls, keeps the numpy
loop.  An RK4 window takes it when the field gives ``kernel_data``.  A
machine where the library cannot be built or fails its load-time probe
keeps the numpy loops.

State may be a single complex number or a numpy array of them; an array
is advanced as one system with a shared step sequence.  ``evolve_at``
returns the states at several times from one integration, cutting the
windows at those times; ``evolve`` is its one-time case.
``evolution_map`` is the one evaluator of phi_{s,t}: interior points,
circle points where the field is tangent, and the exact identity at
s = t.

Inside ``with collect_stats() as sink``, every integration window adds
its ``SolverStats`` to ``sink.stats``: windows, accepted steps, steps
rejected on error and by the boundary guard, field evaluations (counted
in the compiled windows too), the smallest and largest accepted step,
and which backend ran the latest RK4 and Dormand-Prince windows and why
numpy did.  Outside such a block no window records anything.  A failed
window raises ``IntegrationError`` with a machine-readable ``reason``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, NotTangentError, ValidationError
from .generators import FieldSpec, windows

# Dormand-Prince 4(5) tableau; the fifth-order solution is propagated and
# the seventh stage is first-same-as-last.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# difference between the propagated and the embedded fourth-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


@dataclass(frozen=True)
class ToleranceSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.1
    min_step: float = 1e-12
    boundary_guard: float = 1e-14

    def __post_init__(self) -> None:
        if not (0.0 < self.min_step < self.max_step):
            raise ValidationError("need 0 < min_step < max_step")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValidationError("tolerances must be positive")


DEFAULT_TOL = ToleranceSettings()


@dataclass(frozen=True)
class SolverStats:
    """Work done by the integration windows run inside ``collect_stats``.

    ``fevals`` counts field evaluations of completed steps, in the
    compiled windows too, which never call ``frozen_at``'s callable:
    1 + 6 per step attempt in a Dormand-Prince window, 4 per RK4 step.
    ``h_min`` and ``h_max`` range over accepted steps.  ``rk4_backend``
    and ``dp_backend`` are ``"c"`` or ``"numpy"`` for the latest RK4 and
    Dormand-Prince window (empty before one ran), and ``rk4_fallback``
    and ``dp_fallback`` say why that window ran on numpy.
    """

    windows: int = 0
    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    fevals: int = 0
    h_min: float = math.inf
    h_max: float = 0.0
    rk4_backend: str = ""
    rk4_fallback: str = ""
    dp_backend: str = ""
    dp_fallback: str = ""

    def merge(self, other: "SolverStats") -> "SolverStats":
        rk4 = other if other.rk4_backend else self
        dp = other if other.dp_backend else self
        return SolverStats(
            self.windows + other.windows, self.accepted + other.accepted,
            self.rejected_error + other.rejected_error,
            self.rejected_guard + other.rejected_guard, self.fevals + other.fevals,
            min(self.h_min, other.h_min), max(self.h_max, other.h_max),
            rk4.rk4_backend, rk4.rk4_fallback, dp.dp_backend, dp.dp_fallback)


class StatsSink:
    """Accumulates the SolverStats of each window while it is active."""

    def __init__(self) -> None:
        self.stats = SolverStats()

    def add(self, window: SolverStats) -> None:
        self.stats = self.stats.merge(window)


_SINK: ContextVar[StatsSink | None] = ContextVar("loewner_stats_sink", default=None)


@contextmanager
def collect_stats():
    """Yield a StatsSink that the integration windows run in this block,
    in this context, add their SolverStats to.  An inner block's windows
    go to the inner sink only."""
    sink = StatsSink()
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


def _step_once(fun, t, y, h, k1):
    """One Dormand-Prince step; returns (y5, err_vector, k7)."""
    ks = [k1]
    for row in _A[1:-1]:
        acc = row[0] * ks[0]
        for a, k in zip(row[1:], ks[1:]):
            acc = acc + a * k
        ks.append(fun(y + h * acc))
    row = _A[-1]
    acc = row[0] * ks[0]
    for a, k in zip(row[1:], ks[1:]):
        if a != 0.0:
            acc = acc + a * k
    y5 = y + h * acc
    k7 = fun(y5)
    ks.append(k7)
    err = _E[0] * ks[0]
    for e, k in zip(_E[1:], ks[1:]):
        if e != 0.0:
            err = err + e * k
    return y5, h * err, k7


@dataclass
class _Tally:
    """Step counts of one Dormand-Prince window, kept current while it
    runs, so that a window that raises still reports its work."""

    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    h_min: float = math.inf
    h_max: float = 0.0


@np.errstate(all="ignore")  # silent on a NaN point, as the compiled windows are
def _dp_steps(fun, t0, t1, y, tol, guard, record, tally):
    """Dormand-Prince in numpy over [t0, t1] with a time-constant fun:
    (state, t, last h, failure reason or "").  Counts the steps in tally
    and appends each accepted (t, w) to record, if not None.  On a
    failure, the state and t are the last accepted ones and last h is the
    step that underflowed, or the last one the boundary guard rejected."""
    t = t0
    h = min(tol.max_step, t1 - t0)
    k1 = fun(y)
    err_prev = 1.0
    guard_h = None  # the step the boundary guard rejected last, if it did
    while t < t1:
        h = min(h, t1 - t)
        # underflow only counts when the controller forced it, not when
        # the window remainder itself is tiny
        if h < tol.min_step and t1 - t > tol.min_step:
            if guard_h is not None:
                return y, t, guard_h, "boundary_guard"
            return y, t, h, "step_underflow"
        y5, err_vec, k7 = _step_once(fun, t, y, h, k1)
        if guard and float(np.max(np.abs(y5))) >= 1.0 - tol.boundary_guard:
            tally.rejected_guard += 1
            guard_h = h
            h *= 0.5
            continue
        guard_h = None
        scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(err_vec) / scale))
        if err <= 1.0:
            tally.accepted += 1
            tally.h_min, tally.h_max = min(tally.h_min, h), max(tally.h_max, h)
            t_new = t + h
            if t1 - t_new <= 1e-14 * max(1.0, abs(t1)):
                t_new = t1
            t, y, k1 = t_new, y5, k7
            if record is not None:
                record.append((t, _unwrap(y)))
            e = max(err, 1e-10)
            fac = _SAFETY * e ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
            h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, fac)), tol.max_step)
            err_prev = e
        else:
            tally.rejected_error += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
    return y, t, h, ""


def _integrate_window(fun, t0, t1, y, tol, guard, record):
    """``_dp_steps``, in one compiled call where fun carries its
    ``kernel_data`` and the compiled window loaded, and in numpy
    otherwise, to the same bits; raises IntegrationError on a failure."""
    data = getattr(fun, "kernel_data", None)
    lib, reason = _compiled(data, y, "field callable carries no kernel data")
    tally = _Tally()
    try:
        if lib is None:
            y, t, h, failure = _dp_steps(fun, t0, t1, y, tol, guard, record, tally)
        else:
            t, h, failure = lib.dp(data, t0, t1, y, tol, guard, record, tally)
    finally:
        sink = _SINK.get()
        if sink is not None:
            steps = tally.accepted + tally.rejected_error + tally.rejected_guard
            sink.add(SolverStats(1, tally.accepted, tally.rejected_error,
                                 tally.rejected_guard, 1 + 6 * steps, tally.h_min,
                                 tally.h_max, dp_backend="numpy" if lib is None else "c",
                                 dp_fallback=reason))
    if not failure:
        return y
    if failure == "boundary_guard":
        text = (f"boundary guard rejected every step from t = {t} in window "
                f"[{t0}, {t1}] (last h = {h:.3g})")
    else:
        text = f"step size underflow at t = {t}"
    raise IntegrationError(text, t=t, w=_unwrap(y), reason=failure, window=(t0, t1),
                           last_h=h)


def _compiled(data, y, without_data: str):
    """(the compiled windows, "") when a window of the kernel ``data`` on
    the state y can run compiled, else (None, why not)."""
    from . import _rk4

    if data is None:
        return None, without_data
    if not y.size:
        return None, "empty state"
    return _rk4.load()


def _as_state(z):
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    return arr.copy()


def _unwrap(y):
    return complex(y[0]) if y.shape == (1,) else y.copy()


def _validate_window(s: float, t: float) -> None:
    if not (0.0 <= s <= t):
        raise DomainError(f"need 0 <= s <= t, got s = {s}, t = {t}")


def iter_evolve_at(spec: FieldSpec, s: float, times, z,
                   tol: ToleranceSettings | None = None, record: list | None = None):
    """Yield phi_{s,u}(z) for each u in ``times``, integrating once from s.

    Windows are cut at the schedule breakpoints and at the requested
    times, so the states before a failure are yielded before it raises.
    """
    tol = tol or DEFAULT_TOL
    times = [float(u) for u in times]
    if not times:
        raise DomainError("need at least one time")
    _validate_window(s, times[0])
    if any(b < a for a, b in zip(times, times[1:])):
        raise DomainError("times must be non-decreasing")
    scalar = not isinstance(z, np.ndarray)
    y = _as_state(z)
    if float(np.max(np.abs(y))) >= 1.0:
        raise DomainError("initial point must lie in the open unit disk")
    if record is not None:
        if not scalar:
            raise DomainError("trajectory recording needs a scalar initial point")
        record.append((s, _unwrap(y)))
    now = s
    for end in times:
        if end > now:
            for a, b, u in windows(spec, now, end):
                y = _integrate_window(spec.frozen_at(u), a, b, y, tol, guard=True, record=record)
            now = end
        yield _unwrap(y) if scalar else y.copy()


def evolve_at(spec: FieldSpec, s: float, times, z, tol: ToleranceSettings | None = None,
              record: list | None = None) -> list:
    """[phi_{s,u}(z) for u in times] from one integration starting at s.

    ``times`` must be non-decreasing and start at or after s.  Each state
    has the type of ``z`` (complex or complex ndarray).  With ``record``,
    accepted steps (t, w) are appended (scalar z only).
    """
    return list(iter_evolve_at(spec, s, times, z, tol, record))


def evolve(spec: FieldSpec, s: float, t: float, z, tol: ToleranceSettings | None = None,
           record: list | None = None):
    """phi_{s,t}(z): the unique solution of the initial value problem.

    ``z`` may be complex or a complex ndarray; the return type matches.
    With ``record``, accepted steps (t, w) are appended (scalar z only).
    """
    return evolve_at(spec, s, (t,), z, tol, record)[0]


def rk4_oracle(spec: FieldSpec, s: float, t: float, z, n_steps: int):
    """Classical fixed-step fourth-order Runge-Kutta cross-check.

    Uses a uniform grid of ``n_steps`` intervals with schedule breakpoints
    inserted; fails hard if any step leaves the closed disk.  Each window
    runs in one compiled call where the field gives ``kernel_data`` and
    the compiled window loaded (see ``_rk4``), and in numpy otherwise, to
    the same bits; ``SolverStats`` says which.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    _validate_window(s, t)
    scalar = not isinstance(z, np.ndarray)
    y = _as_state(z)
    if t == s:
        return complex(z) if scalar else np.asarray(z, dtype=complex).copy()
    base = np.linspace(s, t, n_steps + 1)
    parts = list(windows(spec, s, t))
    grid = np.union1d(base, [a for a, _, _ in parts[1:]]) if len(parts) > 1 else base
    for a, b, u in parts:
        inside = grid[(grid >= a) & (grid <= b)]
        y, fail = _rk4_window(spec, u, inside, y)
        if fail >= 0:
            t1 = inside[fail + 1]
            raise IntegrationError(
                f"oracle state left the disk at t = {t1}", t=t1, w=_unwrap(y),
                reason="left_disk", window=(a, b), last_h=float(t1 - inside[fail])
            )
    return _unwrap(y) if scalar else y


@np.errstate(all="ignore")  # silent on a NaN point, as the compiled windows are
def _rk4_steps(g, grid, y):
    """RK4 in numpy over the grid of one window: (state, index of the
    first step after which max|y| >= 1, or -1)."""
    for i, (t0, t1) in enumerate(zip(grid, grid[1:])):
        h = t1 - t0
        k1 = g(y)
        k2 = g(y + 0.5 * h * k1)
        k3 = g(y + 0.5 * h * k2)
        k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.abs(y).max() >= 1.0:
            return y, i
    return y, -1


def _rk4_window(spec, t, grid, y):
    """``_rk4_steps`` with the field frozen at t, in one compiled call
    where the field gives ``kernel_data`` and the compiled window loaded."""
    data = spec.kernel_data(t) if hasattr(spec, "kernel_data") else None
    lib, reason = _compiled(data, y, "field gives no kernel data")
    if lib is not None:
        fail = lib.rk4(data, grid, y)
    else:
        y, fail = _rk4_steps(spec.frozen_at(t), grid, y)
    sink = _SINK.get()
    if sink is not None:
        steps = len(grid) - 1 if fail < 0 else fail + 1
        accepted = steps - (fail >= 0)
        h = np.diff(grid[:accepted + 1])
        sink.add(SolverStats(1, accepted, 0, steps - accepted, 4 * steps,
                             float(h.min()) if accepted else math.inf,
                             float(h.max()) if accepted else 0.0,
                             "numpy" if lib is None else "c", reason))
    return y, fail


_TANGENCY_TOL = 1e-8


def evolve_on_circle(spec: FieldSpec, s: float, t: float, theta,
                     tol: ToleranceSettings | None = None):
    """Boundary flow: angle(s) theta advance along d theta / dt =
    Im(G(e^{i theta}, t) e^{-i theta}).

    Valid only where the field is tangent to the circle; a detectable
    radial component raises NotTangentError.  Angles are returned
    unwrapped (they may leave [0, 2 pi)).
    """
    tol = tol or DEFAULT_TOL
    _validate_window(s, t)
    scalar = not isinstance(theta, np.ndarray)
    y = np.atleast_1d(np.asarray(theta, dtype=complex))
    if t == s:
        return float(np.real(y[0])) if scalar else np.real(y).copy()

    def wrap(g):
        def fun(ang):
            z = np.exp(1j * np.real(ang))
            gz = g(z) * np.conj(z)
            radial = float(np.max(np.abs(np.real(gz))))
            size = float(np.max(np.abs(gz)))
            if radial > _TANGENCY_TOL * (1.0 + size):
                raise NotTangentError(
                    f"field has radial boundary component {radial:.3g}"
                )
            return np.imag(gz).astype(complex)
        return fun

    for a, b, u in windows(spec, s, t):
        y = _integrate_window(wrap(spec.frozen_at(u)), a, b, y, tol, guard=False, record=None)
    out = np.real(y)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class EvolutionEvaluator:
    """phi_{s,t} as an evaluate-at-point service.

    Interior points are integrated; points of the unit circle (a whole
    array of them, or one) follow the boundary flow, which needs the field
    to be tangent there.  The s = t evaluator is the identity exactly, with
    no integration performed.
    """

    spec: FieldSpec
    s: float
    t: float
    tol: ToleranceSettings = DEFAULT_TOL

    def __post_init__(self) -> None:
        _validate_window(self.s, self.t)

    def __call__(self, z):
        if self.t == self.s:
            return z if not isinstance(z, np.ndarray) else z.copy()
        if isinstance(z, np.ndarray):
            mods = np.abs(z)
            if np.max(np.abs(mods - 1.0)) <= 1e-12:
                ang = evolve_on_circle(self.spec, self.s, self.t, np.angle(z), self.tol)
                return np.exp(1j * ang)
            if np.max(mods) < 1.0:
                return evolve(self.spec, self.s, self.t, z, self.tol)
            raise DomainError("mixed interior/boundary evaluation batch")
        if abs(abs(z) - 1.0) <= 1e-12:
            ang = evolve_on_circle(self.spec, self.s, self.t, float(np.angle(z)), self.tol)
            return complex(np.exp(1j * ang))
        return evolve(self.spec, self.s, self.t, complex(z), self.tol)


def evolution_map(spec: FieldSpec, s: float, t: float,
                  tol: ToleranceSettings | None = None) -> EvolutionEvaluator:
    return EvolutionEvaluator(spec, s, t, tol or DEFAULT_TOL)
