import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    AtomicCircleMeasure,
    BoundaryPoint,
    CircleAtom,
    DomainError,
    MeasureSchedule,
    PoleError,
    ScheduleSegment,
    ValidationError,
    circle_measure,
)
from loewner.generators import exp_integral
from loewner.grids import polar_grid, upper_half_plane_grid
from reference import (
    NevanlinnaRep,
    RealAtomicMeasure,
    corollary_q_eval,
    herglotz_eval,
    nevanlinna_eval,
    require_probability,
)

PI = math.pi


class TestCircleMeasureValidation:
    def test_positive_weights_only(self):
        with pytest.raises(ValidationError):
            CircleAtom(BoundaryPoint(0.0), 0.0)
        with pytest.raises(ValidationError):
            CircleAtom(BoundaryPoint(0.0), -1.0)

    def test_distinct_positions(self):
        with pytest.raises(ValidationError):
            circle_measure([(1.0, 0.5), (1.0 + 1e-13, 0.5)])

    def test_excluded_point_conflict(self):
        with pytest.raises(ValidationError):
            circle_measure([(0.0, 1.0)], excluded_angle=0.0)

    def test_probability_tolerance(self):
        ok = circle_measure([(PI, 0.5), (PI / 2, 0.5 + 1e-13)])
        require_probability(ok)
        off = circle_measure([(PI, 0.5), (PI / 2, 0.5 + 1e-6)])
        with pytest.raises(ValidationError):
            require_probability(off)

    def test_mass_at(self):
        mu = circle_measure([(PI, 0.25), (1.0, 0.5)])
        assert mu.mass_at(BoundaryPoint(PI)) == 0.25
        assert mu.mass_at(BoundaryPoint(2.0)) == 0.0

    def test_json_round_trip(self):
        mu = circle_measure([(PI, 0.3), (1.0, 0.7)], excluded_angle=0.0)
        again = AtomicCircleMeasure.from_dict(json.loads(json.dumps(mu.to_dict())))
        assert again == mu


class TestRealAtomicMeasure:
    def test_inside_window(self):
        RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0), inside=True)
        with pytest.raises(ValidationError):
            RealAtomicMeasure(((1.0, 1.0),), (-1.0, 1.0), inside=True)

    def test_outside_window(self):
        RealAtomicMeasure(((2.0, 1.0),), (-1.0, 1.0), inside=False)
        with pytest.raises(ValidationError):
            RealAtomicMeasure(((0.5, 1.0),), (-1.0, 1.0), inside=False)

    def test_window_ordering(self):
        with pytest.raises(ValidationError):
            RealAtomicMeasure((), (1.0, -1.0))


class TestHerglotzEval:
    def test_single_atom_at_origin_angle(self):
        mu = circle_measure([(0.0, 1.0)])
        assert herglotz_eval(mu, 0.0, 0j) == pytest.approx(1.0)

    def test_direct_formula(self):
        mu = circle_measure([(0.0, 1.0)])
        assert herglotz_eval(mu, 0.0, 0.5 + 0j) == pytest.approx(3.0)

    def test_probability_normalization(self):
        mu = circle_measure([(PI / 2, 0.5), (3 * PI / 2, 0.5)])
        assert herglotz_eval(mu, 0.0, 0j) == pytest.approx(1.0)

    def test_imag_const(self):
        mu = circle_measure([(0.0, 1.0)])
        assert herglotz_eval(mu, 2.5, 0j) == pytest.approx(1.0 + 2.5j)

    def test_pole_at_atom(self):
        mu = circle_measure([(0.0, 1.0)])
        with pytest.raises(PoleError):
            herglotz_eval(mu, 0.0, 1.0 + 0j)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=2 * PI - 0.05),
                st.floats(min_value=1e-3, max_value=5.0),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: round(t[0], 3),
        ),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_real_part(self, pairs, c):
        mu = circle_measure(pairs)
        vals = herglotz_eval(mu, c, polar_grid(np.linspace(0.06, 0.96, 16), 16))
        assert float(np.min(vals.real)) > 0.0


class TestCorollaryQ:
    def test_atom_at_minus_one(self):
        nu = circle_measure([(PI, 1.0)], excluded_angle=0.0)
        assert corollary_q_eval(nu, 0j) == pytest.approx(2.0)
        assert corollary_q_eval(nu, 0.5 + 0j) == pytest.approx(4.0)

    def test_atom_at_i(self):
        nu = circle_measure([(PI / 2, 1.0)], excluded_angle=0.0)
        assert corollary_q_eval(nu, 0j) == pytest.approx(1.0 - 1j)

    def test_value_one_at_minus_one(self):
        nu = circle_measure([(PI, 0.25), (PI / 2, 0.5), (4.0, 0.25)], excluded_angle=0.0)
        assert corollary_q_eval(nu, -1.0 + 0j) == pytest.approx(1.0)

    def test_rejects_non_probability(self):
        nu = circle_measure([(PI, 0.9)], excluded_angle=0.0)
        with pytest.raises(ValidationError):
            corollary_q_eval(nu, 0j)

    def test_rejects_atom_at_one(self):
        nu = circle_measure([(0.0, 1.0)])
        with pytest.raises(ValidationError):
            corollary_q_eval(nu, 0j)


class TestNevanlinna:
    def test_identity_when_measure_vanishes(self):
        rep = NevanlinnaRep(0.0, 1.0)
        assert nevanlinna_eval(rep, 5 + 2j) == pytest.approx(5 + 2j)

    def test_single_atom(self):
        rep = NevanlinnaRep(0.0, 2.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)))
        assert nevanlinna_eval(rep, 1j) == pytest.approx(3j)

    def test_fixed_points(self):
        rep = NevanlinnaRep(0.0, 2.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)))
        assert nevanlinna_eval(rep, 1.0 + 0j) == pytest.approx(1.0)
        assert nevanlinna_eval(rep, -1.0 + 0j) == pytest.approx(-1.0)

    def test_pole_at_atom(self):
        rep = NevanlinnaRep(0.0, 2.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)))
        with pytest.raises(PoleError):
            nevanlinna_eval(rep, 0j)

    def test_beta_nonnegative(self):
        with pytest.raises(ValidationError):
            NevanlinnaRep(0.0, -0.1)

    def test_half_plane_preservation(self):
        rep = NevanlinnaRep(1.5, 0.7, RealAtomicMeasure(((0.3, 2.0), (-0.4, 0.1)), (-1.0, 1.0)))
        vals = nevanlinna_eval(rep, upper_half_plane_grid(16, (0.1, 0.5, 1.0, 4.0)))
        assert float(np.min(np.asarray(vals).imag)) > 0.0

    def test_derivative(self):
        rep = NevanlinnaRep(0.0, 2.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)))
        assert rep.derivative(1.0) == pytest.approx(3.0)
        assert rep.derivative(-1.0) == pytest.approx(3.0)


class TestMeasureSchedule:
    def make(self, hold_last=False):
        return MeasureSchedule(
            (
                ScheduleSegment(0.0, 1.0, circle_measure([(PI, 1.0)], excluded_angle=0.0)),
                ScheduleSegment(1.0, 2.0, circle_measure([(PI / 2, 1.0)], excluded_angle=0.0)),
            ),
            hold_last=hold_last,
        )

    def test_single_segment_lookup(self):
        sched = MeasureSchedule(
            (ScheduleSegment(0.0, 1.0, circle_measure([(PI, 1.0)], excluded_angle=0.0)),)
        )
        assert sched.measure_at(0.5).atoms[0].position == BoundaryPoint(PI)

    def test_boundary_resolves_right(self):
        sched = self.make()
        assert sched.measure_at(1.0).atoms[0].position == BoundaryPoint(PI / 2)

    def test_negative_time(self):
        with pytest.raises(DomainError):
            self.make().measure_at(-0.1)

    def test_past_end_without_hold_last(self):
        with pytest.raises(DomainError):
            self.make().measure_at(2.0)
        assert self.make(hold_last=True).measure_at(5.0).atoms[0].position == BoundaryPoint(PI / 2)

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            MeasureSchedule(
                (ScheduleSegment(0.5, 1.0, circle_measure([(PI, 1.0)])),)
            )

    def test_contiguity(self):
        with pytest.raises(ValidationError):
            MeasureSchedule(
                (
                    ScheduleSegment(0.0, 1.0, circle_measure([(PI, 1.0)])),
                    ScheduleSegment(1.5, 2.0, circle_measure([(PI, 1.0)])),
                )
            )

    def test_breakpoints(self):
        assert self.make().breakpoints(0.0, 2.0) == [1.0]
        assert self.make().breakpoints(0.0, 0.5) == []

    def test_integrate_mass(self):
        # a schedule has breakpoints, so its windows carry the integral of
        # the mass its measure puts at a point
        sched = self.make()

        def mass_at(point):
            return lambda u: sched.measure_at(u).mass_at(point)

        assert exp_integral(sched, 0.0, 2.0, mass_at(BoundaryPoint(PI))) == math.exp(1.0)
        assert exp_integral(sched, 0.5, 2.0, mass_at(BoundaryPoint(PI))) == math.exp(0.5)
        assert exp_integral(sched, 0.0, 1.0, mass_at(BoundaryPoint(PI / 2))) == 1.0

    def test_json_round_trip(self):
        sched = self.make(hold_last=True)
        again = MeasureSchedule.from_dict(json.loads(json.dumps(sched.to_dict())))
        assert again == sched
