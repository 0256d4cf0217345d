"""Shared field fixtures: the six flows everything is validated against."""

import math

import pytest

from loewner import (
    BerksonPortaField,
    BoundaryPoint,
    CorollaryField,
    MeasureSchedule,
    ReciprocalField,
    ScheduleSegment,
    circle_measure,
)
from reference import MobiusTransform

PI = math.pi


def delta_measure(angle, weight=1.0):
    return circle_measure([(angle, weight)], excluded_angle=0.0)


def corollary_delta(angle, t_end=1.0, hold_last=False):
    sched = MeasureSchedule(
        (ScheduleSegment(0.0, t_end, delta_measure(angle)),), hold_last=hold_last
    )
    return CorollaryField(sched)


def two_segment_field():
    sched = MeasureSchedule(
        (
            ScheduleSegment(0.0, 1.0, delta_measure(PI)),
            ScheduleSegment(1.0, 2.0, delta_measure(PI / 2)),
        )
    )
    return CorollaryField(sched)


def radial_field():
    return BerksonPortaField(0j, p_const=1.0)


def parabolic_field():
    return BerksonPortaField(1.0 + 0j, p_const=1.0)


def example_three_atoms():
    data = tuple((BoundaryPoint(2.0 * PI * k / 3.0), 1.0) for k in range(3))
    return ReciprocalField(0j, data)


def hyperbolic_x(t):
    return (math.exp(t) - 1.0) / (math.exp(t) + 1.0)


def hyperbolic_automorphism(t):
    """Closed form of the flow fixing +-1 with dilation e^t at -1."""
    x = hyperbolic_x(t)
    return MobiusTransform(1.0, x, x, 1.0)


@pytest.fixture
def cor_minus1():
    return corollary_delta(PI)


@pytest.fixture
def cor_i():
    return corollary_delta(PI / 2)
