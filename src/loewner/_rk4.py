"""Loader of the compiled RK4 window, ``_rk4.c``.

The source is compiled on first use, never at import, with
``cc -O2 -ffp-contract=off -shared -fPIC`` into a private per-user cache,
``${XDG_CACHE_HOME:-~/.cache}/loewner``, under a name keyed by a hash of
the source and the compile command; the library is written under a
temporary name and moved into place, so concurrent builds are safe.  A
later process loads the cached library without running the compiler.
A new build removes the libraries of other sources or commands from the
cache, but never a concurrent build's temporary file.

After loading, a probe runs a few dozen RK4 steps of each kernel kind
through the compiled window and through the numpy loop and compares
every bit.  With no compiler, a failed build or any differing bit,
``load`` returns no window and the reason, and ``rk4_oracle`` runs on
numpy and reports the reason in its ``SolverStats``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_rk4.c")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KINDS = {"bp_const": 0, "bp_herglotz": 1, "reciprocal": 2, "corollary": 3}

_loaded: tuple | None = None  # (window or None, fallback reason), once per process


def load():
    """(run, reason): ``run(data, grid, y)`` advances the contiguous
    complex state y in place over the grid with the field kernel
    ``data`` (a ``generators.KernelData``) and returns what
    ``integrate._rk4_steps`` returns as its index; or (None, why not)."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded


def _load():
    try:
        lib = _library()
    except OSError as exc:
        return None, str(exc)
    import ctypes

    ptr, n = ctypes.c_void_p, ctypes.c_long
    window = lib.rk4_window
    window.argtypes = (ctypes.c_int, ptr, ptr, ptr, n, ptr, n, ptr, n)
    window.restype = n
    max_abs = lib.max_abs
    max_abs.argtypes = (ptr, n)
    max_abs.restype = ctypes.c_double

    def run(data, grid, y):
        tau = np.array([data.tau], dtype=complex)
        start = np.array([data.start], dtype=complex)
        atoms = np.array(data.atoms, dtype=complex).reshape(-1, 2)
        grid = np.ascontiguousarray(grid, dtype=float)
        if y.dtype != complex or not y.flags.c_contiguous or not y.flags.writeable:
            raise ValueError("the state must be a writeable contiguous complex array")
        return window(_KINDS[data.kind], tau.ctypes.data, start.ctypes.data,
                      atoms.ctypes.data, len(atoms), grid.ctypes.data, len(grid),
                      y.ctypes.data, y.size)

    fault = _probe(run, lambda y: max_abs(y.ctypes.data, y.size))
    return (None, fault) if fault else (run, "")


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "loewner"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is writable by other users")
    return path


def _library():
    """The compiled library, built into the cache if it is not there."""
    import ctypes

    source = _SOURCE.read_bytes()
    command = (_COMPILER, *_FLAGS)
    key = hashlib.sha256(source + b"\0" + " ".join(command).encode()).hexdigest()[:16]
    cache = _cache_dir()
    path = cache / f"rk4-{key}.so"
    if not path.exists():
        _compile(command, source, path)
        for stale in cache.glob("rk4-*.so"):  # temporaries are named .rk4-*
            if stale != path:
                with contextlib.suppress(OSError):
                    stale.unlink()
    return ctypes.CDLL(str(path))


def _compile(command, source: bytes, path: Path) -> None:
    """Compile the source bytes, which were hashed, from standard input
    into a temporary file next to path, then move it to path."""
    import subprocess
    import tempfile

    if shutil.which(command[0]) is None:
        raise OSError(f"no C compiler found ({command[0]})")
    fd, tmp = tempfile.mkstemp(prefix=".rk4-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run([*command, "-o", tmp, "-x", "c", "-"], input=source,
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            err = done.stderr.decode(errors="replace").strip().splitlines()
            raise OSError(f"{command[0]} failed on {_SOURCE.name}: "
                          f"{err[0] if err else f'exit {done.returncode}'}")
        os.replace(tmp, path)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{command[0]} did not finish: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _probe(run, max_abs) -> str:
    """'' if the compiled window reproduces the numpy loop to the bit on
    each kernel kind, else what differed."""
    from .generators import kernel_probe_fields
    from .integrate import _rk4_steps

    grid = np.linspace(0.0, 0.4, 33)
    points = 0.93 * np.exp(1j * np.arange(17)) * np.linspace(0.0, 1.0, 17)
    for spec in kernel_probe_fields():
        data = spec.kernel_data(0.5)
        for n in (1, 16, 17):
            want, want_fail = _rk4_steps(data.kernel(), grid, points[:n].copy())
            got = points[:n].copy()
            if run(data, grid, got) != want_fail or got.tobytes() != want.tobytes():
                return f"compiled window differs from numpy on {data.kind}, {n} points"
    # moduli within a few ulps of 1, where the guard decides, and extremes;
    # numpy's max propagates NaN
    y = np.concatenate([np.exp(1j * np.arange(32)) * (1.0 + 2.0 ** -52 * np.arange(-16, 16)),
                        [0.0, 1e-300j, 3e200 + 4e200j, np.inf + 1j, complex(np.nan, 2.0)]])
    want = np.abs(y)
    got = np.array([max_abs(y[k:k + 1]) for k in range(len(y))] + [max_abs(y)])
    if got.tobytes() != np.append(want, want.max()).tobytes():
        return "compiled complex abs differs from numpy"
    return ""
