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
from .errors import ConfigError, ValidationError
from .generators import (
    BerksonPortaField,
    CorollaryField,
    FieldSpec,
    ReciprocalField,
    field_from_dict,
    field_to_dict,
)
from .grids import polar_grid
from .integrate import ToleranceSettings
from .measures import MeasureSchedule, json_number as _number

ROLE_BRFP = "brfp"
ROLE_DW = "dw"

#: angular slack when matching configured fixed points to field data
_MATCH_TOL = 1e-9


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
            "field": field_to_dict(self.field),
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


def _get(d: dict, key: str, ptr: str, required: bool = True, default=None):
    if key not in d:
        _require(not required, f"missing required member {key!r}", ptr)
        return default
    return d[key]


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
    field_dict = _get(data, "field", "/field")
    _require(isinstance(field_dict, dict), "field must be an object", "/field")
    spec = _parse_field(field_dict, skip_validation)

    integ = _get(data, "integration", "/integration")
    _require(isinstance(integ, dict), "integration must be an object", "/integration")
    t0 = _number(_get(integ, "t0", "/integration/t0"), "/integration/t0")
    t1 = _number(_get(integ, "t1", "/integration/t1"), "/integration/t1")
    _require(0.0 <= t0 <= t1, "need 0 <= t0 <= t1", "/integration")
    rel = _number(integ.get("rel_tol", 1e-10), "/integration/rel_tol")
    abs_ = _number(integ.get("abs_tol", 1e-12), "/integration/abs_tol")
    _require(rel > 0.0 and abs_ > 0.0, "tolerances must be positive", "/integration")
    window = IntegrationWindow(t0, t1, rel, abs_)

    grid_d = _get(data, "grid", "/grid")
    _require(isinstance(grid_d, dict), "grid must be an object", "/grid")
    kind = _get(grid_d, "kind", "/grid/kind")
    _require(kind == "polar", f"unsupported grid kind {kind!r}", "/grid/kind")
    radii_raw = _get(grid_d, "radii", "/grid/radii")
    _require(isinstance(radii_raw, list) and radii_raw, "radii must be a non-empty list", "/grid/radii")
    radii = tuple(_number(r, f"/grid/radii/{i}") for i, r in enumerate(radii_raw))
    for i, r in enumerate(radii):
        _require(0.0 < r < 1.0, "grid radii must lie in (0, 1)", f"/grid/radii/{i}")
    angles = _get(grid_d, "angles", "/grid/angles")
    _require(isinstance(angles, int) and not isinstance(angles, bool) and angles > 0,
             "angles must be a positive integer", "/grid/angles")
    grid = GridSpec(kind, radii, angles)

    checks_raw = _get(data, "checks", "/checks")
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
        angle = _number(_get(fp, "angle", f"{ptr}/angle"), f"{ptr}/angle")
        role = _get(fp, "expected_role", f"{ptr}/expected_role")
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


def _parse_field(d: dict, skip_validation: bool) -> FieldSpec:
    kind = _get(d, "kind", "/field/kind")
    if kind == "corollary":
        sched_d = _get(d, "schedule", "/field/schedule")
        try:
            sched = MeasureSchedule.from_dict(sched_d, "/field/schedule")
        except (ValidationError, KeyError, TypeError) as exc:
            raise ConfigError(str(exc), pointer="/field/schedule")
        if not skip_validation:
            origin = BoundaryPoint(0.0)
            for i, seg in enumerate(sched.segments):
                ptr = f"/field/schedule/segments/{i}/measure"
                if not seg.measure.is_probability():
                    raise ConfigError(
                        f"probability mass != 1 (total {seg.measure.total_mass!r})",
                        pointer=ptr,
                    )
                if seg.measure.excluded is None or seg.measure.excluded.gap(origin) > _MATCH_TOL:
                    raise ConfigError("measure must exclude angle 0", pointer=ptr)
        return CorollaryField(sched, check=False)
    try:
        return field_from_dict(d, validate=not skip_validation, ptr="/field")
    except (ValidationError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc), pointer="/field")


def _check_fixed_points(spec: FieldSpec, fps: list[FixedPointSpec]) -> None:
    for i, fp in enumerate(fps):
        ptr = f"/fixed_points/{i}"
        if isinstance(spec, CorollaryField):
            if fp.role == ROLE_DW:
                _require(fp.point.gap(BoundaryPoint(0.0)) <= _MATCH_TOL,
                         "corollary DW point sits at angle 0", ptr)
            else:
                _require(fp.point.gap(BoundaryPoint(math.pi)) <= _MATCH_TOL,
                         "corollary BRFP sits at angle pi", ptr)
        elif isinstance(spec, ReciprocalField):
            if fp.role == ROLE_BRFP:
                _require(any(fp.point.gap(p) <= _MATCH_TOL for p, _ in spec.data),
                         "brfp angle does not match any prescribed sigma", ptr)
            else:
                _require(abs(abs(spec.tau) - 1.0) <= 1e-9,
                         "field has an interior DW point; it cannot be listed by angle", ptr)
                _require(fp.point.gap(BoundaryPoint.from_complex(spec.tau)) <= _MATCH_TOL,
                         "dw angle does not match tau", ptr)
        elif isinstance(spec, BerksonPortaField):
            _require(fp.role == ROLE_DW,
                     "this field variant prescribes no boundary null points", ptr)
            _require(abs(abs(spec.tau) - 1.0) <= 1e-9,
                     "field has an interior DW point; it cannot be listed by angle", ptr)
            _require(fp.point.gap(BoundaryPoint.from_complex(spec.tau)) <= _MATCH_TOL,
                     "dw angle does not match tau", ptr)
