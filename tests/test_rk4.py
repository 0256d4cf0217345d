"""The compiled RK4 window against the numpy loop, and the solver counters."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
    circle_measure,
    evolve,
    evolve_on_circle,
    rk4_oracle,
)
from loewner import _rk4
from loewner.generators import kernel_probe_fields
from loewner.integrate import collect_stats
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
    assert len(built) == 1 and built[0].suffix == ".so"
    assert oct(cache.stat().st_mode & 0o777) == "0o700"
    # no compiler on the PATH: only the cached library can give "c"
    second = _backend_in_child(dict(env, PATH=str(tmp_path / "empty")))
    assert second.stdout.strip() == "c", second.stderr
    assert sorted(cache.iterdir()) == built


def test_a_new_build_removes_stale_libraries(tmp_path):
    cache = tmp_path / "loewner"
    cache.mkdir(mode=0o700)
    (cache / "rk4-0000000000000000.so").write_bytes(b"library of an older source")
    (cache / ".rk4-concurrent.so").write_bytes(b"a build in progress")
    (cache / "rk4-undeletable.so").mkdir()  # unlink fails: the load must not
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    child = _backend_in_child(env)
    if child.stdout.startswith("no C compiler"):
        pytest.skip(child.stdout.strip())
    assert child.stdout.strip() == "c", child.stderr
    left = sorted(p.name for p in cache.iterdir())
    built = [n for n in left if n.startswith("rk4-") and n != "rk4-undeletable.so"]
    assert len(built) == 1 and built[0] != "rk4-0000000000000000.so"
    assert left == sorted([".rk4-concurrent.so", built[0], "rk4-undeletable.so"])


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
