"""The compiled RK4 and Dormand-Prince windows against the numpy loops,
and the solver counters."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from loewner import (
    BerksonPortaField,
    BoundaryPoint,
    CorollaryField,
    IntegrationError,
    MeasureSchedule,
    ReciprocalField,
    ScheduleSegment,
    SolverStats,
    circle_measure,
    evolve,
    evolve_on_circle,
    rk4_oracle,
)
from loewner import _rk4
from loewner.config import parse_config
from loewner.generators import KernelData, kernel_probe_fields
from loewner.integrate import DEFAULT_TOL, collect_stats
from conftest import corollary_delta, parabolic_field, radial_field, two_segment_field

PI = math.pi
SRC = str(Path(_rk4.__file__).resolve().parent.parent)


def require_compiled():
    """Skips where no C compiler is installed, and fails on any other
    reason the compiled window did not load (a probe mismatch)."""
    run, reason = _rk4.load()
    if run is None and reason.startswith("no C compiler"):
        pytest.skip(reason)
    assert run is not None, reason


def on_numpy(monkeypatch):
    monkeypatch.setattr(_rk4, "_loaded", (None, "numpy path forced by the test"))


def off_grid_schedule_field():
    """berkson_porta with a breakpoint at 0.3712, off the uniform grid, and
    an imaginary constant."""
    sched = MeasureSchedule((
        ScheduleSegment(0.0, 0.3712, circle_measure([(1.0, 0.4), (3.5, 1.1)])),
        ScheduleSegment(0.3712, 1.0, circle_measure([(2.0, 0.8), (5.0, 0.3), (0.5, 0.2)])),
    ))
    return BerksonPortaField(BoundaryPoint(4.2).value, p_schedule=sched, imag_const=0.35)


FIELDS = {
    "radial-const": (radial_field(), 1.0),
    "parabolic-const": (parabolic_field(), 1.0),
    "bp-schedule-off-grid": (off_grid_schedule_field(), 1.0),
    "bp-measure-imag-const": (kernel_probe_fields()[1], 1.0),
    "reciprocal": (ReciprocalField(0.3j, ((BoundaryPoint(1.0), 0.7), (BoundaryPoint(2.5), 1.3),
                                          (BoundaryPoint(4.4), 0.4))), 1.0),
    "corollary-two-segment": (two_segment_field(), 2.0),
}
STATES = {
    "scalar": 0.3 - 0.45j,
    "one": np.array([0.3 - 0.45j]),
    "sixteen": 0.95 * np.exp(1j * np.linspace(0.1, 6.0, 16)) * np.linspace(0.0, 1.0, 16),
    "four-by-four": (0.9 * np.exp(1j * np.linspace(0.1, 6.0, 16)) * np.linspace(0.1, 1.0, 16)
                     ).reshape(4, 4),
}


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("state", STATES)
def test_compiled_window_matches_numpy_to_the_bit(monkeypatch, name, state):
    require_compiled()
    fld, t1 = FIELDS[name]
    z = STATES[state]
    with collect_stats() as c_sink:
        fast = rk4_oracle(fld, 0.0, t1, z, 300)
    on_numpy(monkeypatch)
    with collect_stats() as np_sink:
        slow = rk4_oracle(fld, 0.0, t1, z, 300)
    assert type(fast) is type(slow) and np.shape(fast) == np.shape(z)
    assert np.array_equal(fast, slow)
    assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()
    assert c_sink.stats.rk4_backend == "c" and c_sink.stats.rk4_fallback == ""
    assert np_sink.stats.rk4_backend == "numpy"
    assert c_sink.stats.fevals == np_sink.stats.fevals


@pytest.mark.parametrize("state", ["scalar", "sixteen"])
def test_leaving_the_disk_fails_alike(monkeypatch, state):
    """RK4 with h = 1 on G = -5 z multiplies by 13.7 per step: the first
    step leaves the disk, and both paths report its time and state."""
    require_compiled()
    fld = BerksonPortaField(0j, p_const=5.0)
    z = 0.5 if state == "scalar" else STATES[state]
    with pytest.raises(IntegrationError) as fast:
        rk4_oracle(fld, 0.0, 3.0, z, 3)
    on_numpy(monkeypatch)
    with collect_stats() as sink, pytest.raises(IntegrationError) as slow:
        rk4_oracle(fld, 0.0, 3.0, z, 3)
    assert fast.value.t == slow.value.t == 1.0
    assert np.asarray(fast.value.w).tobytes() == np.asarray(slow.value.w).tobytes()
    assert str(fast.value) == str(slow.value) == "oracle state left the disk at t = 1.0"
    if state == "scalar":
        assert fast.value.w == pytest.approx(0.5 * (1 - 5 + 12.5 - 125 / 6 + 625 / 24), rel=1e-15)
    assert (sink.stats.accepted, sink.stats.rejected_guard, sink.stats.fevals) == (0, 1, 4)
    for err in (fast.value, slow.value):
        assert (err.reason, err.window, err.last_h) == ("left_disk", (0.0, 3.0), 1.0)


class KernelField:
    """A duck-typed field whose callables carry ``kernel_data`` built
    directly, outside the field classes' validation."""

    def __init__(self, data):
        self.data = data

    def breakpoints(self, s, t):
        return []

    def frozen_at(self, t):
        return self.data.kernel()

    def kernel_data(self, t):
        return self.data


#: G = z: the flow z e^t leaves the disk at t = -log|z|
OUTWARD = KernelField(KernelData("bp_const", 0j, -1.0 + 0j, ()))
#: the term -1/(1 + 2z) puts a pole at z = -1/2 into the disk, and the
#: flow from -0.2 runs into it at t = 0.32 with unbounded speed
INTERIOR_POLE = KernelField(KernelData("corollary", 1.0 + 0j, 0j, ((2.0 + 0j, -1.0 + 0j),)))


#: G = -z (-2 + 0.3 (2 + z) / (2 - z)) pushes every point out at a rate
#: between 1.7 and 1.9, through a division per evaluation
OUTWARD_HERGLOTZ = KernelField(KernelData("bp_herglotz", 0j, -2.0 + 0j, ((2.0 + 0j, 0.3 + 0j),)))
SHAPES = {"2": (2,), "17": (17,), "48": (48,), "4x4": (4, 4)}


def _spread(shape, modulus):
    """Points of the given modulus, spread over the angles."""
    n = math.prod(shape)
    return (modulus * np.exp(1j * np.linspace(0.3, 6.0, n))).reshape(shape)


def _oracle_both(monkeypatch, fld, z, n_steps):
    """(result or IntegrationError, stats) of rk4_oracle on the compiled
    path, then on numpy."""
    runs = []
    for forced in (False, True):
        if forced:
            on_numpy(monkeypatch)
        with collect_stats() as sink:
            try:
                result = rk4_oracle(fld, 0.0, 1.0, z, n_steps)
            except IntegrationError as exc:
                result = exc
        runs.append((result, sink.stats))
    (fast, fast_stats), (slow, slow_stats) = runs
    assert (fast_stats.rk4_backend, slow_stats.rk4_backend) == ("c", "numpy")
    assert dataclasses.replace(fast_stats, rk4_backend="", rk4_fallback="") == \
        dataclasses.replace(slow_stats, rk4_backend="", rk4_fallback="")
    return fast, slow, fast_stats


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_one_point_leaving_mid_window_fails_alike(monkeypatch, shape):
    """The RK4 window runs each stage over all points: the step after which
    one point is outside is found as in numpy, with every other point's
    state at that step, although they are all still inside."""
    require_compiled()
    z = _spread(shape, 0.15)
    z.flat[-2] = 0.6j  # leaves at t = 0.29; the others are below 0.25 then
    fast, slow, stats = _oracle_both(monkeypatch, OUTWARD_HERGLOTZ, z, 300)
    assert isinstance(fast, IntegrationError) and isinstance(slow, IntegrationError)
    assert (str(fast), fast.t, fast.reason, fast.window, fast.last_h) == (
        str(slow), slow.t, slow.reason, slow.window, slow.last_h)
    assert fast.w.shape == shape and fast.w.tobytes() == slow.w.tobytes()
    assert fast.reason == "left_disk" and 0.2 < fast.t < 0.4
    assert abs(fast.w.flat[-2]) >= 1.0 and np.abs(np.delete(fast.w, -2)).max() < 0.3
    assert stats.rejected_guard == 1 and stats.fevals == 4 * (stats.accepted + 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_a_nan_point_runs_alike(monkeypatch, shape):
    """A NaN point stays NaN and never trips the disk test, in numpy's
    max as in the compiled one; the other points run to the end."""
    require_compiled()
    fld, _ = FIELDS["reciprocal"]
    z = _spread(shape, 0.8)
    z.flat[len(z.flat) // 2] = complex(np.nan, 0.25)
    fast, slow, _ = _oracle_both(monkeypatch, fld, z, 300)
    assert fast.shape == shape and fast.tobytes() == slow.tobytes()
    assert np.isnan(fast).sum() == 1 and np.abs(fast[~np.isnan(fast)]).max() < 1.0


def _bits(rows):
    return (np.array([t for t, _ in rows]).tobytes(),
            np.array([w for _, w in rows], dtype=complex).tobytes())


def _counts(stats):
    return dataclasses.replace(stats, dp_backend="", dp_fallback="")


def _evolve_both(monkeypatch, fld, t1, z, record):
    """(result, rows, stats) of evolve on the compiled path, then on numpy."""
    runs = []
    for forced in (False, True):
        if forced:
            on_numpy(monkeypatch)
        rows = [] if record else None
        with collect_stats() as sink:
            try:
                result = evolve(fld, 0.0, t1, z, record=rows)
            except IntegrationError as exc:
                result = exc
        runs.append((result, rows, sink.stats))
    (fast, fast_rows, fast_stats), (slow, slow_rows, slow_stats) = runs
    assert fast_stats.dp_backend == "c" and fast_stats.dp_fallback == ""
    assert slow_stats.dp_backend == "numpy"
    assert slow_stats.dp_fallback == "numpy path forced by the test"
    assert _counts(fast_stats) == _counts(slow_stats)
    if record:
        assert _bits(fast_rows) == _bits(slow_rows)
    return runs


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("state", STATES)
def test_compiled_dp_window_matches_numpy_to_the_bit(monkeypatch, name, state):
    require_compiled()
    fld, t1 = FIELDS[name]
    z = STATES[state]
    (fast, rows, stats), (slow, _, _) = _evolve_both(monkeypatch, fld, t1, z,
                                                     record=state == "scalar")
    assert type(fast) is type(slow) and np.shape(fast) == np.shape(z)
    assert np.array_equal(fast, slow)
    assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()
    assert stats.windows == 1 + len(fld.breakpoints(0.0, t1))
    assert stats.fevals == stats.windows + 6 * (
        stats.accepted + stats.rejected_error + stats.rejected_guard)
    if rows is not None:
        assert len(rows) == 1 + stats.accepted and rows[-1][0] == t1


def test_a_long_window_refills_the_rows_buffer(monkeypatch):
    """About 300 steps of at most max_step = 0.1 in one window: the
    compiled window returns with a full buffer and continues."""
    require_compiled()
    fld, _ = FIELDS["reciprocal"]
    (fast, rows, stats), (slow, _, _) = _evolve_both(monkeypatch, fld, 30.0, 0.6 - 0.3j,
                                                     record=True)
    assert stats.windows == 1 and stats.accepted > _rk4._ROWS
    assert fast == slow and len(rows) == 1 + stats.accepted and rows[-1][0] == 30.0


@pytest.mark.parametrize("fld, z, reason", [(OUTWARD, 0.5 + 0j, "boundary_guard"),
                                            (INTERIOR_POLE, -0.2 + 0j, "step_underflow")],
                         ids=["boundary-guard", "step-underflow"])
def test_failures_are_alike(monkeypatch, fld, z, reason):
    require_compiled()
    (fast, rows, stats), (slow, _, _) = _evolve_both(monkeypatch, fld, 1.0, z, record=True)
    assert isinstance(fast, IntegrationError) and isinstance(slow, IntegrationError)
    assert str(fast) == str(slow)
    assert (fast.t, fast.reason, fast.window, fast.last_h) == (
        slow.t, slow.reason, slow.window, slow.last_h)
    assert np.asarray(fast.w).tobytes() == np.asarray(slow.w).tobytes()
    assert fast.reason == reason and fast.window == (0.0, 1.0)
    # the guard's last h is the last step it rejected: halving it underflows
    assert fast.last_h < (2 if reason == "boundary_guard" else 1) * DEFAULT_TOL.min_step
    assert rows[-1] == (fast.t, fast.w) and len(rows) == 1 + stats.accepted
    if reason == "boundary_guard":
        # G = z carries 0.5 onto the circle at t = log 2
        assert fast.t == pytest.approx(math.log(2.0), abs=1e-9)
        assert stats.rejected_guard > 0 and str(fast).startswith(
            f"boundary guard rejected every step from t = {fast.t} in window [0.0, 1.0]")
    else:
        assert fast.t == pytest.approx(0.3069, abs=1e-4)
        assert stats.rejected_error > 0 and stats.rejected_guard == 0
        assert str(fast) == f"step size underflow at t = {fast.t}"


#: the field of the seed-1 simulate_grid bench config: a three-segment
#: berkson_porta schedule with tau = -1 and an imaginary constant
SIMULATE_GRID_SEED_1 = {
    "kind": "berkson_porta", "tau": {"angle": 3.141592653589793}, "p": {"schedule": {"segments": [
        {"t0": 0.0, "t1": 0.6666666666666666, "measure": {"atoms": [
            {"angle": 0.4797406135573414, "weight": 0.525859905342743},
            {"angle": 2.659298966833753, "weight": 0.5351999782946881},
            {"angle": 4.676368374282885, "weight": 0.4516892975556619}], "excluded_angle": None}},
        {"t0": 0.6666666666666666, "t1": 1.3333333333333333, "measure": {"atoms": [
            {"angle": 1.1897447546340594, "weight": 0.46659606734991566},
            {"angle": 3.2867206152749637, "weight": 0.5118591368057427},
            {"angle": 5.293696062685406, "weight": 0.5054685695074572}], "excluded_angle": None}},
        {"t0": 1.3333333333333333, "t1": 2.0, "measure": {"atoms": [
            {"angle": 1.7445074763104658, "weight": 0.549799623404675},
            {"angle": 3.9000730879951795, "weight": 0.5329646573039201},
            {"angle": 5.919709629678626, "weight": 0.46864938570613457}], "excluded_angle": None}},
    ]}, "imag_const": 0.29778501563267246}}


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_simulate_grid_step_budget(monkeypatch, backend):
    """Every fourth point of the seed-1 simulate_grid config, integrated as
    ``simulate`` does: the solver's work is pinned on both backends."""
    if backend == "c":
        require_compiled()
    else:
        on_numpy(monkeypatch)
    cfg = parse_config(json.dumps({
        "field": SIMULATE_GRID_SEED_1,
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.2, 0.4, 0.6, 0.8], "angles": 32},
        "checks": []}))
    with collect_stats() as sink:
        for z in cfg.grid.points()[::4]:
            evolve(cfg.field, 0.0, 2.0, complex(z), cfg.integration.tolerances(), record=[])
    assert sink.stats == SolverStats(96, 2743, 112, 1, 17232, 0.0014839021926233368, 0.1,
                                     dp_backend=backend, dp_fallback=sink.stats.dp_fallback)


def test_opaque_callables_run_on_numpy():
    """The boundary flow's field raises NotTangentError from inside, so it
    stays on numpy; its run into the pole of q at z = i (angles 1.0 and
    2.0) fails as a step underflow."""
    fld = corollary_delta(PI / 2)
    with collect_stats() as sink:
        evolve_on_circle(fld, 0.0, 1.0, np.array([3.0, 4.0]))
    assert (sink.stats.dp_backend, sink.stats.dp_fallback) == (
        "numpy", "field callable carries no kernel data")
    for angle, t in ((1.0, 0.2259), (2.0, 0.0851)):
        with pytest.raises(IntegrationError) as info:
            evolve_on_circle(fld, 0.0, 1.0, angle)
        err = info.value
        assert err.reason == "step_underflow" and err.window == (0.0, 1.0)
        assert str(err) == f"step size underflow at t = {err.t}"
        assert err.t == pytest.approx(t, abs=1e-4) and err.last_h < DEFAULT_TOL.min_step


def test_fallback_without_compiler(monkeypatch, tmp_path):
    """An empty cache and no compiler: numpy runs, and the stats say why."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_rk4, "_COMPILER", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(_rk4, "_loaded", None)
    fld, t1 = FIELDS["corollary-two-segment"]
    with collect_stats() as sink:
        w = rk4_oracle(fld, 0.0, t1, STATES["sixteen"], 50)
    assert sink.stats.rk4_backend == "numpy"
    assert sink.stats.rk4_fallback.startswith("no C compiler found")
    assert str(tmp_path / "no-such-cc") in sink.stats.rk4_fallback
    assert np.all(np.abs(w) < 1.0)
    assert list((tmp_path / "loewner").iterdir()) == []


def test_field_without_kernel_data_runs_on_numpy():
    class Rotation:
        def breakpoints(self, s, t):
            return []

        def frozen_at(self, t):
            return lambda z: 1j * z

    with collect_stats() as sink:
        w = rk4_oracle(Rotation(), 0.0, 1.0, 0.5 + 0j, 100)
    assert w == pytest.approx(0.5 * np.exp(1j), abs=1e-10)
    assert sink.stats.rk4_backend == "numpy"
    assert sink.stats.rk4_fallback == "field gives no kernel data"


def _backend_in_child(env):
    code = ("from loewner import _rk4, integrate; print(_rk4.load()[1] or 'c'); "
            "import loewner.cli")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def test_second_process_loads_the_cache_without_compiling(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    first = _backend_in_child(env)
    if first.stdout.startswith("no C compiler"):
        pytest.skip(first.stdout.strip())
    assert first.stdout.strip() == "c", first.stderr
    cache = tmp_path / "loewner"
    built = sorted(cache.iterdir())
    # the library and the verdict of its probe, under one key
    assert [p.suffix for p in built] == [".so", ".verdict"] and built[0].stem == built[1].stem
    assert built[1].read_text().endswith("\npass\n")
    contents = [p.read_bytes() for p in built]
    assert oct(cache.stat().st_mode & 0o777) == "0o700"
    # no compiler on the PATH: only the cached library can give "c"
    second = _backend_in_child(dict(env, PATH=str(tmp_path / "empty")))
    assert second.stdout.strip() == "c", second.stderr
    assert sorted(cache.iterdir()) == built
    assert [p.read_bytes() for p in built] == contents


def test_a_new_build_removes_stale_libraries(tmp_path):
    cache = tmp_path / "loewner"
    cache.mkdir(mode=0o700)
    (cache / "rk4-0000000000000000.so").write_bytes(b"library of an older source")
    (cache / "rk4-0000000000000000.verdict").write_text("digest\npass\n")
    (cache / "rk4-1111111111111111.verdict").write_text("digest\npass\n")
    (cache / ".rk4-concurrent.so").write_bytes(b"a build in progress")
    (cache / ".rk4-concurrent.verdict").write_bytes(b"a verdict being written")
    (cache / "rk4-undeletable.so").mkdir()  # unlink fails: the load must not
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    child = _backend_in_child(env)
    if child.stdout.startswith("no C compiler"):
        pytest.skip(child.stdout.strip())
    assert child.stdout.strip() == "c", child.stderr
    left = sorted(p.name for p in cache.iterdir())
    built = [n for n in left if n.startswith("rk4-") and n != "rk4-undeletable.so"]
    assert len(built) == 2 and built[0].endswith(".so") and not built[0].startswith("rk4-0000")
    assert built[1] == built[0].replace(".so", ".verdict")
    assert left == sorted([".rk4-concurrent.so", ".rk4-concurrent.verdict", *built,
                           "rk4-undeletable.so"])


@pytest.fixture(scope="module")
def built_library(tmp_path_factory):
    """A library compiled once into a cache of its own."""
    root = tmp_path_factory.mktemp("built")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(root))
        try:
            _, path = _rk4._library()
        except OSError as exc:
            if str(exc).startswith("no C compiler"):
                pytest.skip(str(exc))
            raise
    return path


@pytest.fixture
def cache(monkeypatch, tmp_path, built_library):
    """A private cache directory holding a copy of the built library and no
    verdict; the probes that run are listed in ``probes``."""
    path = tmp_path / "loewner"
    path.mkdir(mode=0o700)
    (path / built_library.name).write_bytes(built_library.read_bytes())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    probes, probe = [], _rk4._probe

    def counted(*args):
        probes.append(args)
        return probe(*args)

    monkeypatch.setattr(_rk4, "_probe", counted)
    return SimpleNamespace(dir=path, verdict=path / built_library.with_suffix(".verdict").name,
                           probes=probes)


def _no_probe(*args):
    pytest.fail("the probe ran although the verdict was cached")


def test_a_matching_verdict_skips_the_probe(monkeypatch, cache):
    run, reason = _rk4._load()
    assert run is not None and reason == "" and len(cache.probes) == 1
    assert cache.verdict.read_text().endswith("\npass\n")
    monkeypatch.setattr(_rk4, "_probe", _no_probe)
    run, reason = _rk4._load()
    assert run is not None and reason == ""
    y = STATES["sixteen"].copy()
    assert run.rk4(kernel_probe_fields()[1].kernel_data(0.5), np.linspace(0, 0.1, 5), y) == -1


#: a change to each part of the verdict's key besides the library
KEY_CHANGES = {
    "numpy": lambda mp: mp.setattr(np, "__version__", "0.0.0"),
    "python": lambda mp: mp.setattr(sys, "version", sys.version + " other build"),
    "machine": lambda mp: mp.setattr(os, "uname", lambda: type("U", (), {"machine": "m68k"})),
    "libc": lambda mp: mp.setattr(os, "confstr", lambda name: "glibc 0.1"),
    "cpu-features": lambda mp: mp.setattr(_umath(), "__cpu_features__", {"SSE2": True}),
    "numpy-side-source": lambda mp: mp.setattr(_rk4, "_PROBED", _rk4._PROBED[:-1]),
}


def _umath():
    """numpy's extension module that lists its enabled CPU features."""
    return (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules["numpy.core._multiarray_umath"])


@pytest.mark.parametrize("change", KEY_CHANGES)
def test_a_changed_key_reruns_the_probe(monkeypatch, cache, change):
    _rk4._load()
    before = cache.verdict.read_text()
    with monkeypatch.context() as mp:
        KEY_CHANGES[change](mp)
        run, reason = _rk4._load()
        after = cache.verdict.read_text()
        assert run is not None and reason == "" and len(cache.probes) == 2
        assert after != before and after.endswith("\npass\n")
        mp.setattr(_rk4, "_probe", _no_probe)  # the rewritten verdict now matches
        assert _rk4._load()[1] == ""
    assert _rk4._load()[1] == "" and len(cache.probes) == 3


def test_a_cached_differing_verdict_keeps_numpy(monkeypatch, cache):
    why = "compiled RK4 window differs from numpy on corollary, 17 points"
    monkeypatch.setattr(_rk4, "_probe", lambda *args: why)
    assert _rk4._load() == (None, why)
    assert cache.verdict.read_text().endswith(f"\n{why}\n")
    monkeypatch.setattr(_rk4, "_probe", _no_probe)
    assert _rk4._load() == (None, why)
    # a verdict file reading "pass" under the digest of the failure is
    # corrupt, not a pass
    cache.verdict.write_text(cache.verdict.read_text().replace(why, "pass"))
    monkeypatch.setattr(_rk4, "_probe", lambda *args: why)
    assert _rk4._load() == (None, why)


CORRUPTIONS = {
    "empty": lambda text: b"",
    "truncated": lambda text: text[:-3],
    "no-end": lambda text: text[:-1],
    "digest": lambda text: bytes([text[0] ^ 1]) + text[1:],
    "extra-line": lambda text: text + b"pass\n",
    "not-utf8": lambda text: b"\xff\xfe" + text,
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_a_corrupt_verdict_reruns_the_probe(cache, corrupt):
    _rk4._load()
    good = cache.verdict.read_bytes()
    cache.verdict.write_bytes(CORRUPTIONS[corrupt](good))
    assert _rk4._load()[1] == "" and len(cache.probes) == 2
    assert cache.verdict.read_bytes() == good


def test_an_unreadable_verdict_reruns_the_probe(cache):
    cache.verdict.mkdir()  # neither read nor replaced
    assert _rk4._load()[1] == "" and _rk4._load()[1] == "" and len(cache.probes) == 2
    assert cache.verdict.is_dir()


def test_a_library_removed_after_loading_is_probed_but_not_cached(monkeypatch, cache):
    """A concurrent build of another source may remove the library that
    was just loaded: its bytes are gone, so no verdict can be keyed."""
    library = _rk4._library

    def removed():
        lib, path = library()
        path.unlink()
        return lib, path

    monkeypatch.setattr(_rk4, "_library", removed)
    assert _rk4._load()[1] == "" and len(cache.probes) == 1
    assert list(cache.dir.iterdir()) == []


def test_a_rebuilt_library_reruns_the_probe(cache):
    _rk4._load()
    library = cache.verdict.with_suffix(".so")
    rebuilt = cache.dir / ".rk4-rebuilt.so"
    rebuilt.write_bytes(library.read_bytes() + b"\0")
    os.replace(rebuilt, library)  # as a build moves its library into place
    assert _rk4._load()[1] == "" and len(cache.probes) == 2
    assert _rk4._load()[1] == "" and len(cache.probes) == 2


def test_import_and_parse_neither_load_nor_compile(tmp_path):
    code = ("import sys, loewner.cli; from loewner.config import parse_config; "
            "print('loewner._rk4' in sys.modules)")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.stdout.strip() == "False", out.stderr
    assert list(tmp_path.iterdir()) == []


class TestSolverStats:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts the calls of the callables that frozen_at returns, on all
        three field classes."""
        calls = [0]
        for cls in (BerksonPortaField, ReciprocalField, CorollaryField):
            frozen_at = cls.frozen_at

            def counting(self, t, frozen_at=frozen_at):
                g = frozen_at(self, t)

                def kernel(z):
                    calls[0] += 1
                    return g(z)

                return kernel

            monkeypatch.setattr(cls, "frozen_at", counting)
        return calls

    @pytest.mark.parametrize("name", ["bp-schedule-off-grid", "reciprocal",
                                      "corollary-two-segment"])
    def test_fevals_equal_counted_calls(self, monkeypatch, counted, name):
        fld, t1 = FIELDS[name]
        z = STATES["sixteen"]
        with collect_stats() as sink:
            evolve(fld, 0.0, t1, z)
        assert sink.stats.fevals == counted[0] > 0
        assert sink.stats.windows == 1 + len(fld.breakpoints(0.0, t1))
        assert sink.stats.accepted > 0
        assert 0.0 < sink.stats.h_min <= sink.stats.h_max <= 0.1
        on_numpy(monkeypatch)
        counted[0] = 0
        with collect_stats() as sink:
            rk4_oracle(fld, 0.0, t1, z, 200)
        assert sink.stats.fevals == counted[0] == 4 * sink.stats.accepted
        assert sink.stats.accepted == 200 + (name == "bp-schedule-off-grid")
        assert sink.stats.rk4_backend == "numpy"

    def test_compiled_window_counts_without_calls(self, counted):
        require_compiled()
        fld, t1 = FIELDS["corollary-two-segment"]
        with collect_stats() as sink:
            rk4_oracle(fld, 0.0, t1, STATES["sixteen"], 200)
        assert counted[0] == 0
        assert (sink.stats.windows, sink.stats.accepted, sink.stats.fevals) == (2, 200, 800)
        assert sink.stats.h_min == pytest.approx(0.01) and sink.stats.h_max == pytest.approx(0.01)
        assert sink.stats.rk4_backend == "c"

    def test_rejections_and_boundary_flow(self, counted):
        fld = corollary_delta(PI / 2)
        with collect_stats() as sink:
            evolve(fld, 0.0, 1.0, 0.9999j)
            evolve_on_circle(fld, 0.0, 1.0, np.array([3.0, 4.0]))
        assert sink.stats.fevals == counted[0]
        assert sink.stats.windows == 2
        assert sink.stats.rejected_error > 0 and sink.stats.rejected_guard > 0
        assert sink.stats.rk4_backend == ""

    def test_no_sink_outside_the_block(self):
        with collect_stats() as sink:
            pass
        evolve(radial_field(), 0.0, 1.0, 0.5 + 0j)
        assert sink.stats.windows == 0
