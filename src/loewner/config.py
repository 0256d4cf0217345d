"""Run configuration: JSON parsing with pointer-qualified diagnostics.

Syntax errors report the byte offset; every other error reports the JSON
pointer of the member at fault.  ``parse_config`` reads each object with
the reader of ``measures``, so an unknown or repeated member, or a
second form of ``tau`` or ``p``, is an error too.  The value types built
from the members enforce their invariants, which the reader reports at
the member's pointer, so the rest of the pipeline can assume a valid
configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .disk import BoundaryPoint, on_circle
from .errors import ConfigError, DomainError, ValidationError
from .generators import FieldSpec, field_from_dict, match_point, windows
from .grids import polar_grid
from .integrate import ToleranceSettings
from .measures import JsonObject, json_object

ROLE_BRFP = "brfp"
ROLE_DW = "dw"

#: largest grid (radii x angles) a config may ask for; checked before the
#: grid is allocated
MAX_GRID_POINTS = 2 ** 20


@dataclass(frozen=True)
class IntegrationWindow:
    t0: float
    t1: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 <= self.t1:
            raise ValidationError("need 0 <= t0 <= t1")
        self.tolerances()  # ToleranceSettings rejects a tolerance that is not positive

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
            "integration": asdict(self.integration),
            "grid": asdict(self.grid),
            "checks": list(self.checks),
            "fixed_points": [{"angle": fp.point.angle, "expected_role": fp.role}
                             for fp in self.fixed_points],
        }
        out = {k: v for k, v in asdict(self.output).items() if v is not None and v is not False}
        if out:
            d["output"] = out
        if self.tolerances:
            d["tolerances"] = dict(sorted(self.tolerances.items()))
        if self.skip_field_validation:
            d["skip_field_validation"] = True
        return d


def emit_config(config: RunConfig) -> bytes:
    """Canonical JSON: sorted keys, no spaces, trailing newline."""
    return (
        json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def config_digest(config: RunConfig) -> str:
    """sha256 of the canonical JSON without its trailing newline."""
    return hashlib.sha256(emit_config(config)[:-1]).hexdigest()


def check_schedule_end(spec: FieldSpec, t: float, name: str) -> float:
    """``t`` if the field is defined on [0, t), as it is for t <= 0; a
    schedule that ends before ``t`` with ``hold_last`` off raises
    ValidationError, naming the time ``name``."""
    try:  # segments are right-open: the last time that matters lies just below t
        spec.frozen_at(math.nextafter(max(t, 0.0), 0.0))
    except DomainError:
        end = list(windows(spec, 0.0, t))[-1][0]  # the last window starts at the end
        raise ValidationError(f"{name} = {t!r} is past the schedule end {end!r} "
                              "and hold_last is off") from None
    return t


def parse_config(text: bytes | str) -> RunConfig:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}", byte_offset=exc.start)
    try:  # NaN and Infinity read as floats the number rule rejects
        data = json.loads(text, object_pairs_hook=json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"JSON syntax error: {exc.msg}", byte_offset=exc.pos)
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise ConfigError(f"JSON value out of range: {exc}")
    from .checks import CHECK_NAMES  # deferred: checks imports this module

    with JsonObject(data, "") as r:
        skip = r.read("skip_field_validation", bool, default=False)
        spec = r.read("field", dict, lambda d, ptr: field_from_dict(d, not skip, ptr))
        window = r.read("integration", dict, lambda d, ptr: _window(d, ptr, spec))
        grid = r.read("grid", dict, _grid)
        checks = r.items("checks", str, _rule(CHECK_NAMES.__contains__, (
            "unknown check {!r}; registered checks: " + ", ".join(sorted(CHECK_NAMES)))))
        fps = r.items("fixed_points", dict, lambda d, ptr: _fixed_point(d, ptr, spec, skip),
                      default=())
        output = r.read("output", dict, _output, default=OutputSpec())
        tols = r.read("tolerances", dict, lambda d, ptr: _tolerances(d, ptr, CHECK_NAMES),
                      default={})
        return RunConfig(spec, window, grid, tuple(checks), tuple(fps), output, tols, skip)


def _rule(ok, message: str):
    """A build that keeps a value ``ok`` accepts and rejects any other
    with ``message``, formatted with the value."""
    def build(v):
        if not ok(v):
            raise ValidationError(message.format(v))
        return v
    return build


def _window(d: dict, ptr: str, spec: FieldSpec) -> IntegrationWindow:
    with JsonObject(d, ptr) as r:
        t0 = r.read("t0", float)
        t1 = r.read("t1", float, lambda t: check_schedule_end(spec, t, "t1"))
        return IntegrationWindow(t0, t1, r.read("rel_tol", float, default=1e-10),
                                 r.read("abs_tol", float, default=1e-12))


def _grid(d: dict, ptr: str) -> GridSpec:
    with JsonObject(d, ptr) as r:
        kind = r.read("kind", str, _rule("polar".__eq__, "unsupported grid kind {!r}"))
        radii = tuple(r.items("radii", float, _rule(
            lambda x: 0.0 < x < 1.0, "grid radii must lie in (0, 1)")))
        if not radii:
            raise ConfigError("radii must be a non-empty list", pointer=r.pointer("radii"))
        return GridSpec(kind, radii, r.read("angles", int, _rule(
            lambda n: 0 < n <= MAX_GRID_POINTS // len(radii),
            f"{len(radii)} radii x {{}} angles is not in 1..{MAX_GRID_POINTS} points")))


def _fixed_point(d: dict, ptr: str, spec: FieldSpec, skip_validation: bool) -> FixedPointSpec:
    """A fixed point.  Unless validation is skipped, it is the field point
    that its angle names (``match_point``): for a brfp one of the field's
    prescribed null points, for a dw its Denjoy-Wolff point on the circle."""
    with JsonObject(d, ptr) as r:
        point = BoundaryPoint(r.read("angle", float))
        role = r.read("expected_role", str, _rule((ROLE_BRFP, ROLE_DW).__contains__,
                                                  "expected_role must be 'brfp' or 'dw'"))
        if skip_validation:
            return FixedPointSpec(point, role)
        if role == ROLE_DW and not on_circle(spec.tau):
            raise ValidationError("field has an interior DW point; it cannot be listed by angle")
        brfp = role == ROLE_BRFP
        named = match_point(point, spec.null_points if brfp else
                            (BoundaryPoint.from_complex(spec.tau),))
        if named is None:
            raise ValidationError("brfp angle does not match any prescribed sigma" if brfp
                                  else "dw angle does not match tau")
        return FixedPointSpec(named, role)


def _output(d: dict, ptr: str) -> OutputSpec:
    with JsonObject(d, ptr) as r:
        return OutputSpec(r.read("trajectory_csv", str, default=None),
                          r.read("report_json", str, default=None),
                          r.read("combined", bool, default=False))


def _tolerances(d: dict, ptr: str, names) -> dict:
    """Tolerance overrides by check name; any other name is unknown."""
    with JsonObject(d, ptr) as r:
        return {name: r.read(name, float) for name in d if name in names}
