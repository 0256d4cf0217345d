"""Command-line interface.

Subcommands:
  simulate    integrate the configured field over the grid, writing
              trajectory CSVs
  verify      run the configured checks and emit a canonical JSON report
  derivative  print the dilation curve t -> phi'_{0,t}(sigma)

Exit codes: 0 success, 1 check failure, 2 config error, 3 integration
or other runtime failure.  LOEWNER_THREADS is accepted and ignored: the
checks run one after another.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

from .boundary import dilation_curve
from .checks import emit_report, run_verify
from .config import RunConfig, check_schedule_end, parse_config
from .disk import BoundaryPoint
from .errors import ConfigError, IntegrationError, LoewnerError
from .integrate import evolve
from .measures import read_value

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_FAILURE = 3


def _load_config(path: str) -> RunConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return parse_config(raw)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = args.out or config.output.trajectory_csv
    if out is None:
        raise ConfigError("simulate needs output.trajectory_csv or --out",
                          pointer="/output/trajectory_csv")
    grid = config.grid.points()
    tol = config.integration.tolerances()
    s, t = config.integration.t0, config.integration.t1

    if config.output.combined:
        path = Path(out)
        if path.suffix != ".csv":  # directory given: use a default file name
            path = path / "trajectory.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("z_index,t,w_re,w_im\n")
        done = f"wrote {path}"

        def rows_file(i):
            return open(path, "a"), f"{i},"
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        done = f"wrote {grid.size} trajectories to {out_dir}"

        def rows_file(i):
            fh = open(out_dir / f"trajectory_z{i:03d}.csv", "w")
            fh.write("t,w_re,w_im\n")
            return fh, ""

    for i, z in enumerate(grid):
        rows = []
        failed_at = None
        try:
            evolve(config.field, s, t, complex(z), tol, record=rows)
        except IntegrationError as exc:
            failed_at = exc.t
        fh, prefix = rows_file(i)
        with fh:
            for u, w in rows:
                fh.write(f"{prefix}{u:.17g},{w.real:.17g},{w.imag:.17g}\n")
            if failed_at is not None:
                fh.write(f"# FAILED t={failed_at:.17g}\n")
        if failed_at is not None:
            print(f"integration failed for grid point {i} at t={failed_at}", file=sys.stderr)
            return EXIT_RUNTIME_FAILURE
    print(done)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    report = run_verify(config)
    payload = emit_report(report)
    dest = args.report or config.output.report_json
    if dest:
        path = Path(dest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        for outcome in report.checks:
            res = "n/a" if outcome.max_residual is None else f"{outcome.max_residual:.3g}"
            status = "pass" if outcome.passed else "FAIL"
            print(f"{status} {outcome.name} (max_residual={res}, "
                  f"tolerance={outcome.tolerance_used:.3g})")
    else:
        sys.stdout.buffer.write(payload)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def _number_argument(text: str, name: str) -> float:
    """A command-line number, read by the config reader's number rule."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}", pointer=name) from None
    return read_value(value, float, name)


def _cmd_derivative(args) -> int:
    config = _load_config(args.config)
    times = [_number_argument(v, "--times") for v in args.times.split(",") if v.strip()]
    if not times or times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("need one or more increasing times >= 0", pointer="--times")
    read_value(times[-1], float, "--times", lambda t: check_schedule_end(config.field, t, "t"))
    sigma = BoundaryPoint(_number_argument(args.sigma, "--sigma"))
    curve = dilation_curve(config.field, sigma, times, config.integration.tolerances())
    print("t,dilation")
    for t, v in curve:
        print(f"{t:.17g},{v:.17g}")
    if any(math.isnan(v) for _, v in curve):
        print("dilation estimate diverged at one or more times", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Evolution families of the unit disk: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the field over the grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides output.trajectory_csv)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("derivative", help="dilation curve at a boundary point")
    p.add_argument("--config", required=True)
    p.add_argument("--sigma", required=True, help="boundary angle in radians")
    p.add_argument("--times", required=True, help="comma-separated increasing times")
    p.set_defaults(fn=_cmd_derivative)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE
    except LoewnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
