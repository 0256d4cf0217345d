"""Loader of the compiled integration windows, ``_rk4.c``: RK4 over a
fixed grid and adaptive Dormand-Prince 4(5).

The source is compiled on first use, never at import, with
``cc -O2 -ffp-contract=off -shared -fPIC`` into a private per-user cache,
``${XDG_CACHE_HOME:-~/.cache}/loewner``, under a name keyed by a hash of
the source and the compile command; the library is written under a
temporary name and moved into place, so concurrent builds are safe.  A
later process loads the cached library without running the compiler.
A new build removes the libraries of other sources or commands from the
cache, but never a concurrent build's temporary file.

After loading, a probe runs a few dozen RK4 steps and a few
Dormand-Prince windows of each kernel kind, with step rejections and
recorded rows, through the compiled windows and through the numpy loops
and compares every bit.  It runs the circle mode of the Dormand-Prince
window as well: the boundary flow of each kind from angles of both signs
and up to two turns, where the field is tangent, where it is not (the
failure's message and counts), and where it stops being tangent
mid-window.  With no compiler, a failed build or any differing bit,
``load`` returns no windows and the reason, and ``integrate`` runs both
integrators on numpy and reports the reason in its ``SolverStats``.

The probe runs once per build and environment.  Its verdict, "pass" or
what differed, is written next to the library as ``rk4-<key>.verdict``,
in the same atomic way, under a digest of the library's bytes, the
sources of the numpy side (``_rk4``, ``integrate``, ``generators``), the
numpy and Python versions, the machine, the libc version and numpy's
enabled CPU features.  A process whose digest matches takes the verdict
without probing; a missing, unreadable or corrupt verdict, or one of
another digest, runs the probe again and rewrites the file.  A new build
removes the verdicts of other keys with their libraries.

A Dormand-Prince window writes the rows it records into a buffer of
``_ROWS`` rows; when the buffer is full, the window returns with its
controller state saved and the next call continues it, so the buffer
never caps the number of steps.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("_rk4.c")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KINDS = {"bp_const": 0, "bp_herglotz": 1, "reciprocal": 2, "corollary": 3}
#: the modules whose numpy loops and fields the probe compares against
_PROBED = tuple(_SOURCE.with_name(f"{m}.py") for m in ("_rk4", "integrate", "generators"))
_PASS = "pass"  # the verdict of a probe that found every bit equal

_ROWS = 256  # rows one call of the DP window records before it returns
_ROWS_FULL = 1
_FAILURES = {2: "step_underflow", 3: "boundary_guard", 4: "not_tangent"}

_loaded: tuple | None = None  # (Windows or None, fallback reason), once per process


class Windows(NamedTuple):
    """The compiled windows.

    ``rk4(data, grid, y)`` advances the contiguous complex state y in
    place over the grid with the field kernel ``data`` (a
    ``generators.KernelData``) and returns what ``integrate._rk4_steps``
    returns as its index.

    ``dp(data, t0, t1, y, tol, guard, record, tally, circle=False)``
    advances y in place over [t0, t1] as ``integrate._dp_steps`` does,
    appends the same accepted rows to ``record`` (if not None), sets the
    same counts in ``tally`` and returns what it returns after the state:
    (t, last h, failure reason or "").  With ``circle``, y holds angles and
    the field is the boundary flow's (``integrate._circle_slope``); where
    that raises ``NotTangentError``, the failure is "not_tangent" and the
    radial size it names takes the place of last h.
    """

    rk4: Callable
    dp: Callable


def load():
    """(Windows, "") or (None, why not)."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded


def _load():
    try:
        lib, path = _library()
    except OSError as exc:
        return None, str(exc)
    import ctypes

    from .integrate import _TANGENCY_TOL, _unwrap

    ptr, n, i = ctypes.c_void_p, ctypes.c_long, ctypes.c_int
    rk4_window = lib.rk4_window
    rk4_window.argtypes = (i, ptr, ptr, ptr, n, ptr, n, ptr, ptr, n)
    rk4_window.restype = n
    dp_window = lib.dp_window
    dp_window.argtypes = (i, ptr, ptr, ptr, n, ptr, ptr, ptr, ptr, ptr, ptr, n, ptr, ptr, n, i)
    dp_window.restype = n
    max_abs = lib.max_abs
    max_abs.argtypes = (ptr, n)
    max_abs.restype = ctypes.c_double
    count_type = np.dtype(n)

    def rk4(data, grid, y):
        tau, start, atoms = _packed(data, y)
        grid = np.ascontiguousarray(grid, dtype=float)
        work = np.empty(3 * y.size, dtype=complex)
        return rk4_window(_KINDS[data.kind], *_addresses(tau, start, atoms), len(atoms),
                          *_addresses(grid), len(grid), *_addresses(y, work), y.size)

    def dp(data, t0, t1, y, tol, guard, record, tally, circle=False):
        tau, start, atoms = _packed(data, y)
        kernel = (_KINDS[data.kind], *_addresses(tau, start, atoms), len(atoms))
        settings = np.array([t1, tol.rel_tol, tol.abs_tol, tol.max_step, tol.min_step,
                             tol.boundary_guard, float(guard), _TANGENCY_TOL if circle else 0.0])
        ctl = np.array([t0, min(tol.max_step, t1 - t0), 1.0, -1.0, math.inf, 0.0, 0.0])
        count = np.zeros(4, dtype=count_type)
        slope, work = np.empty_like(y), np.empty(7 * y.size, dtype=complex)
        cap = 0 if record is None else _ROWS
        rows_t, rows_w = np.empty(cap), np.empty((cap, *y.shape), dtype=complex)
        buffers = _addresses(settings, ctl, count, y, slope, work)
        rows = _addresses(rows_t, rows_w) if cap else (None, None)
        fresh = 1
        while True:
            status = dp_window(*kernel, *buffers, y.size, *rows, cap, fresh)
            if record is not None:
                k = int(count[3])
                ws = rows_w[:k, 0].tolist() if y.shape == (1,) else map(_unwrap, rows_w[:k])
                record.extend(zip(rows_t[:k].tolist(), ws))
            if status != _ROWS_FULL:
                break
            fresh = 0
        tally.accepted, tally.rejected_error, tally.rejected_guard = count[:3].tolist()
        t, h, _, guard_h, tally.h_min, tally.h_max, radial = ctl.tolist()
        failure = _FAILURES.get(status, "")
        return t, {"boundary_guard": guard_h, "not_tangent": radial}.get(failure, h), failure

    windows = Windows(rk4, dp)
    fault = _verdict(path, lambda: _probe(windows, lambda y: max_abs(y.ctypes.data, y.size)))
    return (None, fault) if fault else (windows, "")


def _packed(data, y) -> tuple:
    """The arrays (tau, start, atoms) of the kernel ``data`` for both
    windows, after checking the state they will write to."""
    if y.dtype != complex or not y.flags.c_contiguous or not y.flags.writeable:
        raise ValueError("the state must be a writeable contiguous complex array")
    return (np.array([data.tau], dtype=complex), np.array([data.start], dtype=complex),
            np.array(data.atoms, dtype=complex).reshape(-1, 2))


def _addresses(*arrays) -> list:
    """Each array's data address; unlike ``.ctypes`` it costs no ``ctypes.cast``
    but keeps no array alive, so callers hold them until the call returns."""
    return [a.ctypes.data for a in arrays]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "loewner"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is writable by other users")
    return path


def _library():
    """The compiled library and its path, built into the cache if it is
    not there."""
    import ctypes

    source = _SOURCE.read_bytes()
    command = (_COMPILER, *_FLAGS)
    key = hashlib.sha256(source + b"\0" + " ".join(command).encode()).hexdigest()[:16]
    cache = _cache_dir()
    path = cache / f"rk4-{key}.so"
    if not path.exists():
        _compile(command, source, path)
        for stale in cache.glob("rk4-*"):  # temporaries are named .rk4-*
            if stale.stem != path.stem:  # another key's library or verdict
                with contextlib.suppress(OSError):
                    stale.unlink()
    return ctypes.CDLL(str(path)), path


def _compile(command, source: bytes, path: Path) -> None:
    """Compile the source bytes, which were hashed, from standard input
    into a temporary file next to path, then move it to path."""
    import subprocess

    if shutil.which(command[0]) is None:
        raise OSError(f"no C compiler found ({command[0]})")
    try:
        with _replacing(path) as tmp:
            done = subprocess.run([*command, "-o", tmp, "-x", "c", "-"], input=source,
                                  capture_output=True, timeout=120)
            if done.returncode != 0:
                err = done.stderr.decode(errors="replace").strip().splitlines()
                raise OSError(f"{command[0]} failed on {_SOURCE.name}: "
                              f"{err[0] if err else f'exit {done.returncode}'}")
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{command[0]} did not finish: {exc}") from None


@contextlib.contextmanager
def _replacing(path: Path):
    """A temporary file next to path, named .rk4-*, moved to path if the
    block succeeds and removed if it fails."""
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".rk4-", suffix=path.suffix, dir=path.parent)
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _verdict(library: Path, probe) -> str:
    """The probe's result, '' or what differed, for this library in this
    environment: read from the verdict file next to the library when its
    digest matches, else run the probe and write the verdict there."""
    path = library.with_suffix(".verdict")
    try:
        key = _probe_key(library)
    except OSError:  # a file of the key went away: probe, but cache nothing
        return probe()
    with contextlib.suppress(OSError, ValueError):
        digest, verdict, end = path.read_text().split("\n")
        if not end and digest == _digest(key, verdict):
            return "" if verdict == _PASS else verdict
    fault = probe()
    verdict = fault or _PASS
    with contextlib.suppress(OSError), _replacing(path) as tmp:
        Path(tmp).write_text(f"{_digest(key, verdict)}\n{verdict}\n")
    return fault


def _probe_key(library: Path) -> bytes:
    """Everything the probe's verdict depends on: the library's bytes, the
    Python side it is compared with, and the environment of the numpy side
    (numpy, Python, the machine, libc and numpy's enabled CPU features)."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    features = sorted(k for k, on in getattr(umath, "__cpu_features__", {}).items() if on)
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):
        libc = ""
    env = (np.__version__, sys.version, os.uname().machine, libc, " ".join(features))
    files = (hashlib.sha256(p.read_bytes()).digest() for p in (library, *_PROBED))
    return b"".join(files) + "\0".join(env).encode()


def _digest(key: bytes, verdict: str) -> str:
    return hashlib.sha256(key + b"\0" + verdict.encode()).hexdigest()


def _probe(windows: Windows, max_abs) -> str:
    """'' if both compiled windows, and the circle mode of the
    Dormand-Prince window, reproduce the numpy loops to the bit on each
    kernel kind, else what differed."""
    from .errors import NotTangentError
    from .generators import KernelData, kernel_probe_fields
    from .integrate import (ToleranceSettings, _circle_slope, _dp_steps, _not_tangent,
                            _rk4_steps, _Tally)

    grid = np.linspace(0.0, 0.4, 33)
    points = 0.93 * np.exp(1j * np.arange(17)) * np.linspace(0.0, 1.0, 17)
    # a few dozen DP steps: the first ones are rejected on error, and the
    # bp_herglotz points near the circle meet the boundary guard
    tol = ToleranceSettings(rel_tol=1e-6, abs_tol=1e-8, max_step=0.35)
    for spec in kernel_probe_fields():
        data = spec.kernel_data(0.5)
        for n in (1, 16, 17):
            want, want_fail = _rk4_steps(data.kernel(), grid, points[:n].copy())
            got = points[:n].copy()
            if windows.rk4(data, grid, got) != want_fail or got.tobytes() != want.tobytes():
                return f"compiled RK4 window differs from numpy on {data.kind}, {n} points"
            want_rows, want_tally = [], _Tally()
            want, *want_end = _dp_steps(data.kernel(), 0.05, 0.4, points[:n].copy(), tol,
                                        True, want_rows, want_tally)
            got, got_rows, got_tally = points[:n].copy(), [], _Tally()
            got_end = windows.dp(data, 0.05, 0.4, got, tol, True, got_rows, got_tally)
            if (got.tobytes() != want.tobytes() or list(got_end) != want_end
                    or got_tally != want_tally or _bits(got_rows) != _bits(want_rows)):
                return f"compiled DP window differs from numpy on {data.kind}, {n} points"
    # the boundary flow, on arcs clear of the poles of the tangent kinds'
    # fields, turned by multiples of 2 pi; bp_const is not tangent, and
    # ``leaving`` is tangent near tau = 1 only: its first angle fails the
    # test in the second step
    turns = 2.0 * np.pi * (np.arange(17) % 5 - 2)
    flows = [(spec.kernel_data(0.5), centre + np.linspace(-0.5, 0.5, 17) + turns, 0.4)
             for spec, centre in zip(kernel_probe_fields(), (0.0, -0.75, 2.5, -0.4))]
    leaving = KernelData("bp_const", 1.0 + 0j, 4e-8 + 1j, ())
    for data, start, t1 in (*flows, (leaving, np.linspace(-0.45, 0.45, 17), 3.0)):
        for n in (1, 16, 17):
            want, want_tally = start[:n].astype(complex), _Tally()
            try:
                want, *want_end = _dp_steps(_circle_slope(data.kernel()), 0.05, t1, want,
                                            tol, False, None, want_tally)
            except NotTangentError as exc:
                want_end = [str(exc)]
            got, got_tally = start[:n].astype(complex), _Tally()
            t, h, failure = windows.dp(data, 0.05, t1, got, tol, False, None, got_tally, True)
            got_end = [str(_not_tangent(h))] if failure == "not_tangent" else [t, h, failure]
            if (got_end != want_end or got_tally != want_tally
                    or (not failure and got.tobytes() != want.tobytes())):
                return f"compiled boundary flow differs from numpy on {data.kind}, {n} points"
    # moduli within a few ulps of 1, where the guard decides, and extremes;
    # numpy's max propagates NaN
    y = np.concatenate([np.exp(1j * np.arange(32)) * (1.0 + 2.0 ** -52 * np.arange(-16, 16)),
                        [0.0, 1e-300j, 3e200 + 4e200j, np.inf + 1j, complex(np.nan, 2.0)]])
    want = np.abs(y)
    got = np.array([max_abs(y[k:k + 1]) for k in range(len(y))] + [max_abs(y)])
    if got.tobytes() != np.append(want, want.max()).tobytes():
        return "compiled complex abs differs from numpy"
    return ""


def _bits(rows) -> bytes:
    return (np.array([t for t, _ in rows]).tobytes()
            + np.array([w for _, w in rows], dtype=complex).tobytes())
