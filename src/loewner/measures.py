"""Atomic measures on the circle and their time schedules, the data of
the Herglotz kernels that drive the fields.

It also holds the reader every config object goes through: a
``JsonObject`` takes each member once, by name, at its own JSON pointer;
``read_value`` applies the member's type rule and turns a ValidationError
from the value type built from it into a ConfigError at that pointer;
and a member that nobody read, or that is given twice, is an error."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .disk import ANGLE_GAP, BoundaryPoint
from .errors import ConfigError, DomainError, ValidationError

PROBABILITY_TOL = 1e-12


#: the reader's type rules, by the Python type a JSON value reads as
_TYPES = {dict: "an object", list: "a list", float: "a number", int: "an integer",
          str: "a string", bool: "true or false"}
_REQUIRED = object()
_REPEATED = object()


def _shown(v) -> str:
    """``v`` as a message names it: a JSON literal, or the type of a container."""
    if isinstance(v, (dict, list)):
        return _TYPES[type(v)]
    return "null" if v is None else str(v).lower() if isinstance(v, bool) else repr(v)


def read_value(v, kind: type, ptr: str, build=None):
    """``v``, the JSON value at the pointer ``ptr``, read as ``kind`` (a
    key of ``_TYPES``; ``float`` takes a finite number that is not a bool)
    and made a value type by ``build``.  An object's ``build`` reads it as
    (value, pointer), as the ``from_dict`` methods do.  A value that breaks
    the type rule, or a ValidationError from ``build``, raises ConfigError
    at ``ptr``."""
    if kind is dict:
        return build(v, ptr)
    if kind is float and isinstance(v, (int, float)) and not isinstance(v, bool):
        if not abs(v) <= 1.7976931348623157e308:  # NaN, infinite, or an int past any float
            raise ConfigError("number must be finite", pointer=ptr)
        v = float(v)
    elif not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
        raise ConfigError(f"expected {_TYPES[kind]}, got {_shown(v)}", pointer=ptr)
    try:
        return v if build is None else build(v)
    except ValidationError as exc:
        raise ConfigError(str(exc), pointer=ptr) from None


def json_object(pairs: list) -> dict:
    """The ``object_pairs_hook`` of config text: the members as a dict, in
    which a name given twice reads as ``_REPEATED``."""
    members = {}
    for name, value in pairs:
        members[name] = _REPEATED if name in members else value
    return members


class JsonObject:
    """The JSON object ``value`` at the pointer ``ptr``, opened around the
    code that reads its members and builds a value type from them.  A
    ValidationError leaving the block becomes a ConfigError at ``ptr``;
    leaving it without an error rejects the first member nobody read."""

    def __init__(self, value, ptr: str):
        if not isinstance(value, dict):
            raise ConfigError(f"expected an object, got {_shown(value)}", pointer=ptr or "/")
        self._members, self._ptr, self._unread = value, ptr, dict.fromkeys(value)

    def __enter__(self) -> "JsonObject":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is None:
            for name in self._unread:
                raise ConfigError(f"unknown member {name!r}", pointer=self.pointer(name))
        elif issubclass(kind, ValidationError):
            raise ConfigError(str(exc), pointer=self._ptr or "/") from None

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def pointer(self, name: str) -> str:
        return f"{self._ptr}/" + name.replace("~", "~0").replace("/", "~1")

    def read(self, name: str, kind: type, build=None, default=_REQUIRED):
        """The member ``name``, read once, as ``read_value`` reads a value.
        Absent, it reads as ``default``, or is an error if there is none;
        null reads as a ``default`` of None; given twice, it is an error."""
        if name not in self._members:
            if default is _REQUIRED:
                raise ConfigError(f"missing required member {name!r}", pointer=self.pointer(name))
            return default
        del self._unread[name]
        v = self._members[name]
        if v is _REPEATED:
            raise ConfigError(f"repeated member {name!r}", pointer=self.pointer(name))
        return None if v is None and default is None else read_value(
            v, kind, self.pointer(name), build)

    def items(self, name: str, kind: type, build=None, default=_REQUIRED):
        """The list member ``name``, each item read as ``kind``."""
        ptr = self.pointer(name)
        return self.read(name, list, lambda values: [
            read_value(v, kind, f"{ptr}/{i}", build) for i, v in enumerate(values)], default)


@dataclass(frozen=True)
class CircleAtom:
    position: BoundaryPoint
    weight: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ValidationError(f"atom weight must be finite and > 0, got {self.weight}")


@dataclass(frozen=True)
class AtomicCircleMeasure:
    """Finite positive atomic measure on the unit circle.

    ``excluded`` optionally declares a circle point the measure must not
    charge (atoms within ANGLE_GAP of it are rejected).
    """

    atoms: tuple[CircleAtom, ...]
    excluded: BoundaryPoint | None = None

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                if a.position.gap(b.position) <= ANGLE_GAP:
                    raise ValidationError(
                        f"atom positions coincide near angle {a.position.angle}"
                    )
            if self.excluded is not None and a.position.gap(self.excluded) <= ANGLE_GAP:
                raise ValidationError(
                    f"atom at angle {a.position.angle} sits at the excluded point"
                )

    @property
    def total_mass(self) -> float:
        return math.fsum(a.weight for a in self.atoms)

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def mass_at(self, point: BoundaryPoint) -> float:
        return math.fsum(
            a.weight for a in self.atoms if a.position.gap(point) <= ANGLE_GAP
        )

    def to_dict(self) -> dict:
        return {
            "atoms": [
                {"angle": a.position.angle, "weight": a.weight} for a in self.atoms
            ],
            "excluded_angle": None if self.excluded is None else self.excluded.angle,
        }

    @classmethod
    def from_dict(cls, d: dict, ptr: str = "") -> "AtomicCircleMeasure":
        """Read ``to_dict`` output; ``ptr`` is the JSON pointer of ``d``.
        A weight out of range raises ConfigError at its own pointer, and
        atoms that coincide or charge the excluded point at ``ptr``."""
        with JsonObject(d, ptr) as r:
            atoms = r.items("atoms", dict, _circle_atom)
            return cls(atoms, r.read("excluded_angle", float, BoundaryPoint, default=None))


def _circle_atom(d: dict, ptr: str) -> CircleAtom:
    with JsonObject(d, ptr) as r:
        angle = BoundaryPoint(r.read("angle", float))
        return r.read("weight", float, lambda w: CircleAtom(angle, w))


def circle_measure(pairs, excluded_angle: float | None = None) -> AtomicCircleMeasure:
    """Shorthand constructor from (angle, weight) pairs."""
    atoms = tuple(CircleAtom(BoundaryPoint(a), w) for a, w in pairs)
    exc = None if excluded_angle is None else BoundaryPoint(excluded_angle)
    return AtomicCircleMeasure(atoms, exc)


@dataclass(frozen=True)
class ScheduleSegment:
    t_start: float
    t_end: float
    measure: AtomicCircleMeasure

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ValidationError(
                f"segment needs t_start < t_end, got [{self.t_start}, {self.t_end})"
            )


@dataclass(frozen=True)
class MeasureSchedule:
    """Piecewise-constant-in-time circle measure on [0, end_time).

    Segments are right-open [t_start, t_end), contiguous, starting at 0.
    With ``hold_last`` the final measure extends to all later times.
    """

    segments: tuple[ScheduleSegment, ...]
    hold_last: bool = False

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValidationError("schedule needs at least one segment")
        if segs[0].t_start != 0.0:
            raise ValidationError("first segment must start at t = 0")
        for prev, nxt in zip(segs, segs[1:]):
            if abs(nxt.t_start - prev.t_end) > 1e-12:
                raise ValidationError(
                    f"segments not contiguous at t = {prev.t_end} vs {nxt.t_start}"
                )

    @property
    def end_time(self) -> float:
        return self.segments[-1].t_end

    def measure_at(self, t: float) -> AtomicCircleMeasure:
        t = float(t)
        if t < 0.0:
            raise DomainError(f"schedule time must be >= 0, got {t}")
        for seg in self.segments:
            if seg.t_start <= t < seg.t_end:
                return seg.measure
        if self.hold_last:
            return self.segments[-1].measure
        raise DomainError(
            f"t = {t} is past the schedule end {self.end_time} and hold_last is off"
        )

    def breakpoints(self, s: float, t: float) -> list[float]:
        """Segment boundaries strictly inside (s, t)."""
        return [seg.t_end for seg in self.segments if s < seg.t_end < t]

    def to_dict(self) -> dict:
        d = {
            "segments": [
                {"t0": seg.t_start, "t1": seg.t_end, "measure": seg.measure.to_dict()}
                for seg in self.segments
            ]
        }
        if self.hold_last:
            d["hold_last"] = True
        return d

    @classmethod
    def from_dict(cls, d: dict, ptr: str = "") -> "MeasureSchedule":
        """Read ``to_dict`` output; ``ptr`` is the JSON pointer of ``d``.
        A segment whose t1 is not past its t0 raises ConfigError at the
        segment, and segments that do not tile [0, end) at ``ptr``."""
        with JsonObject(d, ptr) as r:
            segments = r.items("segments", dict, _schedule_segment)
            return cls(segments, r.read("hold_last", bool, default=False))


def _schedule_segment(d: dict, ptr: str) -> ScheduleSegment:
    with JsonObject(d, ptr) as r:
        return ScheduleSegment(r.read("t0", float), r.read("t1", float),
                               r.read("measure", dict, AtomicCircleMeasure.from_dict))
