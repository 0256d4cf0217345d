"""Run configuration: JSON parsing with pointer-qualified diagnostics.

Syntax errors report the byte offset; semantic errors report a JSON
pointer to the offending member.  All structural invariants of the
field, grid and fixed-point data are enforced here so the rest of the
pipeline can assume a valid configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .disk import BoundaryPoint
from .errors import ConfigError, DomainError, ValidationError
from .generators import FieldSpec, field_from_dict
from .grids import polar_grid
from .integrate import ToleranceSettings
from .measures import json_member, json_number as _number

ROLE_BRFP = "brfp"
ROLE_DW = "dw"

#: angular slack when matching configured fixed points to field data
_MATCH_TOL = 1e-9

#: largest grid (radii x angles) a config may ask for; checked before the
#: grid is allocated
MAX_GRID_POINTS = 2 ** 20


@dataclass(frozen=True)
class IntegrationWindow:
    t0: float
    t1: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def tolerances(self) -> ToleranceSettings:
        return ToleranceSettings(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


@dataclass(frozen=True)
class GridSpec:
    kind: str
    radii: tuple[float, ...]
    angles: int

    def points(self) -> np.ndarray:
        return polar_grid(self.radii, self.angles)


@dataclass(frozen=True)
class FixedPointSpec:
    point: BoundaryPoint
    role: str


@dataclass(frozen=True)
class OutputSpec:
    trajectory_csv: str | None = None
    report_json: str | None = None
    combined: bool = False


@dataclass(frozen=True)
class RunConfig:
    field: FieldSpec
    integration: IntegrationWindow
    grid: GridSpec
    checks: tuple[str, ...]
    fixed_points: tuple[FixedPointSpec, ...] = ()
    output: OutputSpec = OutputSpec()
    tolerances: dict = dc_field(default_factory=dict)
    skip_field_validation: bool = False

    def to_dict(self) -> dict:
        d = {
            "field": self.field.to_dict(),
            "integration": {
                "t0": self.integration.t0,
                "t1": self.integration.t1,
                "rel_tol": self.integration.rel_tol,
                "abs_tol": self.integration.abs_tol,
            },
            "grid": {
                "kind": self.grid.kind,
                "radii": list(self.grid.radii),
                "angles": self.grid.angles,
            },
            "checks": list(self.checks),
            "fixed_points": [
                {"angle": fp.point.angle, "expected_role": fp.role}
                for fp in self.fixed_points
            ],
        }
        out = {}
        if self.output.trajectory_csv is not None:
            out["trajectory_csv"] = self.output.trajectory_csv
        if self.output.report_json is not None:
            out["report_json"] = self.output.report_json
        if self.output.combined:
            out["combined"] = True
        if out:
            d["output"] = out
        if self.tolerances:
            d["tolerances"] = dict(sorted(self.tolerances.items()))
        if self.skip_field_validation:
            d["skip_field_validation"] = True
        return d


def emit_config(config: RunConfig) -> bytes:
    return (
        json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def _require(cond: bool, msg: str, ptr: str) -> None:
    if not cond:
        raise ConfigError(msg, pointer=ptr)


def _bool(v, ptr: str) -> bool:
    _require(isinstance(v, bool), "expected true or false", ptr)
    return v


class _NonFinite:
    """What the reader makes of the JSON extensions NaN, Infinity and
    -Infinity: a value no member accepts, so the error names its pointer."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def parse_config(text: bytes | str) -> RunConfig:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}", byte_offset=exc.start)
    try:
        data = json.loads(text, parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"JSON syntax error: {exc.msg}", byte_offset=exc.pos)
    _require(isinstance(data, dict), "top-level value must be an object", "/")

    skip_validation = _bool(data.get("skip_field_validation", False), "/skip_field_validation")
    field_dict = json_member(data, "field", "")
    _require(isinstance(field_dict, dict), "field must be an object", "/field")
    try:
        spec = field_from_dict(field_dict, validate=not skip_validation, ptr="/field")
    except (ValidationError, TypeError) as exc:
        raise ConfigError(str(exc), pointer="/field")

    integ = json_member(data, "integration", "")
    _require(isinstance(integ, dict), "integration must be an object", "/integration")
    t0 = _number(json_member(integ, "t0", "/integration"), "/integration/t0")
    t1 = _number(json_member(integ, "t1", "/integration"), "/integration/t1")
    _require(0.0 <= t0 <= t1, "need 0 <= t0 <= t1", "/integration")
    try:
        # the field must be defined on [t0, t1); schedule segments are
        # right-open, so the last time that matters lies just below t1
        spec.frozen_at(math.nextafter(t1, 0.0))
    except DomainError:
        end = spec.breakpoints(0.0, t1)[-1]
        raise ConfigError(f"t1 = {t1!r} is past the schedule end {end!r} and hold_last is off",
                          pointer="/integration/t1")
    rel = _number(integ.get("rel_tol", 1e-10), "/integration/rel_tol")
    abs_ = _number(integ.get("abs_tol", 1e-12), "/integration/abs_tol")
    _require(rel > 0.0 and abs_ > 0.0, "tolerances must be positive", "/integration")
    window = IntegrationWindow(t0, t1, rel, abs_)

    grid_d = json_member(data, "grid", "")
    _require(isinstance(grid_d, dict), "grid must be an object", "/grid")
    kind = json_member(grid_d, "kind", "/grid")
    _require(kind == "polar", f"unsupported grid kind {kind!r}", "/grid/kind")
    radii_raw = json_member(grid_d, "radii", "/grid")
    _require(isinstance(radii_raw, list) and radii_raw, "radii must be a non-empty list", "/grid/radii")
    radii = tuple(_number(r, f"/grid/radii/{i}") for i, r in enumerate(radii_raw))
    for i, r in enumerate(radii):
        _require(0.0 < r < 1.0, "grid radii must lie in (0, 1)", f"/grid/radii/{i}")
    angles = json_member(grid_d, "angles", "/grid")
    _require(isinstance(angles, int) and not isinstance(angles, bool) and angles > 0,
             "angles must be a positive integer", "/grid/angles")
    _require(len(radii) * angles <= MAX_GRID_POINTS,
             f"grid of {len(radii)} radii x {angles} angles exceeds {MAX_GRID_POINTS} points",
             "/grid/angles")
    grid = GridSpec(kind, radii, angles)

    checks_raw = json_member(data, "checks", "")
    _require(isinstance(checks_raw, list), "checks must be a list", "/checks")
    from .checks import CHECK_NAMES  # deferred: checks imports this module

    checks = []
    for i, name in enumerate(checks_raw):
        if not isinstance(name, str) or name not in CHECK_NAMES:
            raise ConfigError(
                f"unknown check {name!r}; registered checks: {', '.join(sorted(CHECK_NAMES))}",
                pointer=f"/checks/{i}",
            )
        checks.append(name)

    fps_raw = data.get("fixed_points", [])
    _require(isinstance(fps_raw, list), "fixed_points must be a list", "/fixed_points")
    fps = []
    for i, fp in enumerate(fps_raw):
        ptr = f"/fixed_points/{i}"
        _require(isinstance(fp, dict), "fixed point must be an object", ptr)
        angle = _number(json_member(fp, "angle", ptr), f"{ptr}/angle")
        role = json_member(fp, "expected_role", ptr)
        _require(role in (ROLE_BRFP, ROLE_DW), "expected_role must be 'brfp' or 'dw'", f"{ptr}/expected_role")
        fps.append(FixedPointSpec(BoundaryPoint(angle), role))
    if not skip_validation:
        _check_fixed_points(spec, fps)

    out_d = data.get("output", {})
    _require(isinstance(out_d, dict), "output must be an object", "/output")
    for key in ("trajectory_csv", "report_json"):
        path = out_d.get(key)
        _require(path is None or isinstance(path, str), "expected a path string", f"/output/{key}")
    output = OutputSpec(
        trajectory_csv=out_d.get("trajectory_csv"),
        report_json=out_d.get("report_json"),
        combined=_bool(out_d.get("combined", False), "/output/combined"),
    )

    tols_raw = data.get("tolerances", {})
    _require(isinstance(tols_raw, dict), "tolerances must be an object", "/tolerances")
    tols = {}
    for name, v in tols_raw.items():
        _require(name in CHECK_NAMES, f"tolerance for unknown check {name!r}", f"/tolerances/{name}")
        tols[name] = _number(v, f"/tolerances/{name}")

    return RunConfig(spec, window, grid, tuple(checks), tuple(fps), output, tols,
                     skip_validation)


def _check_fixed_points(spec: FieldSpec, fps: list[FixedPointSpec]) -> None:
    """A brfp must sit at one of the field's prescribed null points and a
    dw at its Denjoy-Wolff point on the circle."""
    for i, fp in enumerate(fps):
        ptr = f"/fixed_points/{i}"
        if fp.role == ROLE_BRFP:
            _require(any(fp.point.gap(p) <= _MATCH_TOL for p in spec.null_points),
                     "brfp angle does not match any prescribed sigma", ptr)
        else:
            _require(abs(abs(spec.tau) - 1.0) <= 1e-9,
                     "field has an interior DW point; it cannot be listed by angle", ptr)
            _require(fp.point.gap(BoundaryPoint.from_complex(spec.tau)) <= _MATCH_TOL,
                     "dw angle does not match tau", ptr)
