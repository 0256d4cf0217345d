import cmath
import math

import numpy as np
import pytest

from loewner import (
    BoundaryPoint,
    CorollaryField,
    DomainError,
    PoleError,
    ToleranceSettings,
    angular_derivative,
    check_arc_length,
    check_julia,
    dilation_curve,
    evolution_map,
)
from loewner.extrapolate import default_radii
from loewner.grids import disk_grid_100, upper_half_plane_grid
from conftest import (
    corollary_delta,
    example_three_atoms,
    hyperbolic_automorphism,
    radial_field,
    two_segment_field,
)
from reference import (
    MobiusTransform,
    NevanlinnaRep,
    RealAtomicMeasure,
    build_automorphism,
    build_three_brfp_map,
    check_half_plane_julia,
)

PI = math.pi
ONE = BoundaryPoint(0.0)
MINUS_ONE = BoundaryPoint(PI)
TARGETS = (BoundaryPoint(PI / 2), BoundaryPoint(3 * PI / 2), BoundaryPoint(0.0))


def identity_map(z):
    return z


class TestAngularDerivative:
    def test_identity(self):
        est = angular_derivative(identity_map, ONE, ONE)
        assert not est.diverged
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_automorphism(self):
        m = hyperbolic_automorphism(1.0)
        est = angular_derivative(m.apply, MINUS_ONE, MINUS_ONE)
        assert est.value == pytest.approx(math.e, rel=1e-6)
        est2 = angular_derivative(m.apply, ONE, ONE)
        assert est2.value == pytest.approx(1.0 / math.e, rel=1e-6)

    def test_three_brfp_map_dilations(self):
        m = build_three_brfp_map(
            -1.0, 1.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS
        )
        assert angular_derivative(m, m.tau, m.tau).value == pytest.approx(0.5, rel=1e-4)
        assert angular_derivative(m, m.sigma1, m.sigma1).value == pytest.approx(3.0, rel=1e-4)
        assert angular_derivative(m, m.sigma2, m.sigma2).value == pytest.approx(3.0, rel=1e-4)

    def test_rotated_contact_point_normalization(self):
        # rotation by pi/2 has |derivative| 1 at every boundary point with
        # image rotated; the normalized value must be real positive
        rot = MobiusTransform(1j, 0.0, 0.0, 1.0)
        sigma = BoundaryPoint(PI / 4)
        omega = BoundaryPoint(PI / 4 + PI / 2)
        est = angular_derivative(rot.apply, sigma, omega)
        assert not est.diverged
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_divergence_flag(self):
        # z -> z/e has no boundary fixed point at 1: quotient blows up
        m = MobiusTransform(1.0 / math.e, 0.0, 0.0, 1.0)
        est = angular_derivative(m.apply, ONE, ONE)
        assert est.diverged
        assert est.value is None

    def test_raw_quotients_recorded(self):
        est = angular_derivative(identity_map, ONE, ONE)
        assert est.raw_quotients == tuple((r, 1.0 + 0j) for r in default_radii())

    def test_square_at_one_is_two(self):
        # the radii are not the caller's: the Richardson step assumes that
        # 1 - r halves from one radius to the next, which [0.5, 0.6, 0.7, 0.8]
        # breaks, reading 1.9 with no divergence flag
        est = angular_derivative(lambda z: z * z, ONE, ONE)
        assert not est.diverged and est.value == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(TypeError):
            angular_derivative(lambda z: z * z, ONE, ONE, radii=[0.5, 0.6, 0.7, 0.8])

    def test_only_package_errors_truncate_the_radii(self):
        # a package error at the outer radii truncates the radius list; any
        # other exception is a bug in the map and propagates
        def failing_beyond(exc, r_max):
            def f(z):
                if isinstance(z, np.ndarray) or abs(z) > r_max:
                    raise exc
                return z
            return f

        est = angular_derivative(failing_beyond(PoleError("pole"), 0.9999), ONE, ONE)
        assert not est.diverged
        assert [r for r, _ in est.raw_quotients] == [1.0 - 2.0 ** -k for k in range(4, 14)]
        with pytest.raises(TypeError):
            angular_derivative(failing_beyond(TypeError("bug"), 0.9999), ONE, ONE)


class TestCheckJulia:
    def test_identity_equality(self):
        violation, _ = check_julia(identity_map, ONE, ONE, 1.0, disk_grid_100())
        assert abs(violation) < 1e-14

    def test_automorphism_equality_everywhere(self):
        m = hyperbolic_automorphism(1.0)
        violation, _ = check_julia(m.apply, MINUS_ONE, MINUS_ONE, math.e, disk_grid_100())
        assert abs(violation) < 1e-10

    def test_evolved_field_passes_with_measured_bound(self):
        ev = evolution_map(corollary_delta(PI / 2), 0.0, 1.0)
        est = angular_derivative(ev, MINUS_ONE, MINUS_ONE)
        violation, _ = check_julia(ev, MINUS_ONE, MINUS_ONE, est.value * (1 + 1e-6),
                                   disk_grid_100())
        assert violation <= 0.0

    def test_violation_when_bound_too_small(self):
        m = hyperbolic_automorphism(1.0)
        grid = disk_grid_100()
        violation, at = check_julia(m.apply, MINUS_ONE, MINUS_ONE, 1.0, grid)
        assert violation > 0.1
        assert at in grid

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            check_julia(identity_map, ONE, ONE, 0.0, disk_grid_100())


class TestDilationCurve:
    def test_delta_minus_one_exponential(self):
        curve = dilation_curve(corollary_delta(PI), MINUS_ONE, [0.0, 0.5, 1.0])
        expected = [1.0, math.exp(0.5), math.e]
        for (t, v), e in zip(curve, expected):
            assert v == pytest.approx(e, rel=1e-4)

    def test_delta_minus_one_reciprocal_at_dw(self):
        curve = dilation_curve(corollary_delta(PI), ONE, [0.0, 1.0])
        assert curve[0][1] == pytest.approx(1.0, abs=1e-12)
        assert curve[1][1] == pytest.approx(math.exp(-1.0), rel=1e-4)

    def test_delta_i_keeps_unit_dilation_at_dw(self, cor_i):
        curve = dilation_curve(cor_i, ONE, [1.0])
        assert curve[0][1] == pytest.approx(1.0, rel=1e-4)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            dilation_curve(corollary_delta(PI), ONE, [1.0, 0.5])
        with pytest.raises(DomainError):
            dilation_curve(corollary_delta(PI), ONE, [0.2, 0.5], s=0.3)

    def test_later_start(self):
        curve = dilation_curve(corollary_delta(PI), MINUS_ONE, [0.3, 0.8], s=0.3)
        assert curve[0][1] == pytest.approx(1.0, abs=1e-12)
        assert curve[1][1] == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_field_evaluation_budget(self, monkeypatch):
        # one sweep over the 21 times; re-integrating from 0 for each time
        # took 1347 field evaluations
        calls = 0
        frozen_at = CorollaryField.frozen_at

        def counting_frozen_at(self, t):
            g = frozen_at(self, t)

            def kernel(z):
                nonlocal calls
                calls += 1
                return g(z)

            return kernel

        monkeypatch.setattr(CorollaryField, "frozen_at", counting_frozen_at)
        times = np.linspace(0.05, 1.0, 21)
        curve = dilation_curve(corollary_delta(PI), MINUS_ONE, times)
        assert calls <= 1347 // 3
        for t, v in curve:
            assert v == pytest.approx(math.exp(t), rel=1e-8)

    def test_failing_radius_serves_earlier_times(self):
        # with a guard band of 0.003 the radii with 1 - r < 0.003 reach no
        # time, and the next two cross the band before t = 1: they still
        # serve t = 0.25, and t = 1 keeps three radii, too few
        fld = corollary_delta(PI)
        radii = default_radii()
        tol = ToleranceSettings(boundary_guard=0.003)
        (_, early), (_, late) = dilation_curve(fld, ONE, [0.25, 1.0], tol)
        est = angular_derivative(evolution_map(fld, 0.0, 0.25, tol), ONE, ONE)
        assert not est.diverged and [r for r, _ in est.raw_quotients] == radii[:5]
        assert early == pytest.approx(est.value, rel=1e-9)
        est = angular_derivative(evolution_map(fld, 0.0, 1.0, tol), ONE, ONE)
        assert est.diverged and [r for r, _ in est.raw_quotients] == radii[:3]
        assert math.isnan(late)


class TestBrfpConsistency:
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_prescribed_points_attract_radially(self, t, cor_i):
        ev = evolution_map(cor_i, 0.0, t)
        sigma = MINUS_ONE.value
        gaps = [abs(ev(r * sigma) - sigma) for r in (0.9, 0.99, 0.999)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        est = angular_derivative(ev, MINUS_ONE, MINUS_ONE)
        assert not est.diverged

    def test_quotient_equals_derivative_at_brfp(self):
        for fld in (corollary_delta(PI), corollary_delta(PI / 2), two_segment_field()):
            t1 = 2.0 if fld.schedule.end_time > 1.0 else 1.0
            ev = evolution_map(fld, 0.0, t1)
            est = angular_derivative(ev, MINUS_ONE, MINUS_ONE)
            # the Julia quotient (1 - |phi(r sigma)|)/(1 - r) tends to the
            # dilation at a brfp, with an O(1 - r) error
            gaps = [abs((1.0 - abs(ev(-r))) / (1.0 - r) - est.value)
                    for r in (1.0 - 2.0 ** -8, 1.0 - 2.0 ** -12)]
            assert gaps[1] < gaps[0] / 8 and gaps[1] <= 1e-2 * est.value


class TestArcLength:
    def test_rotation_equality(self):
        rot = MobiusTransform(cmath.exp(0.7j), 0.0, 0.0, 1.0)
        len_arc, len_image, note = check_arc_length(rot.apply, (0.3, 2.0), samples=512)
        assert note == "" and len_arc <= len_image + 1e-6
        assert len_image == pytest.approx(len_arc, abs=1e-12)

    def test_three_brfp_map_strict_inequality(self):
        m = build_three_brfp_map(
            -1.0, 1.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS
        )
        # the arc through tau = 1 between the sigmas corresponds to the
        # real complement of the support window
        len_arc, len_image, note = check_arc_length(m, (3 * PI / 2 + 0.3, 5 * PI / 2 - 0.3))
        assert note == ""
        assert len_image - len_arc > 1e-3

    def test_hyperbolic_automorphism_equality(self):
        m = hyperbolic_automorphism(1.0)
        len_arc, len_image, note = check_arc_length(m.apply, (PI / 2, 3 * PI / 2))
        assert note == "" and len_arc <= len_image + 1e-6
        assert abs(len_image - len_arc) < 1e-8

    def test_maps_that_move_the_origin_are_normalized(self):
        """The lengths are those of the map followed by the automorphism
        that sends its image of 0 back to 0, built here with the reference
        MobiusTransform; a package error at 0 propagates."""
        three = build_three_brfp_map(
            -1.0, 1.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS
        )
        # fixing -i and i, it moves 0 along the imaginary axis
        upright = build_automorphism(BoundaryPoint(3 * PI / 2), BoundaryPoint(PI / 2),
                                     dilation_at_fix1=math.e)
        for map_fn, arc in ((hyperbolic_automorphism(1.0).apply, (PI / 2, 3 * PI / 2)),
                            (three, (3 * PI / 2 + 0.3, 5 * PI / 2 - 0.3)),
                            (upright.apply, (0.0, PI))):
            w0 = complex(map_fn(0j))
            assert abs(w0) > 0.1
            fix = MobiusTransform(1.0, -w0, -w0.conjugate(), 1.0)
            want = check_arc_length(lambda z: fix.apply(map_fn(z)), arc)
            got = check_arc_length(map_fn, arc)
            assert want[2] == got[2] == ""
            assert got[:2] == pytest.approx(want[:2], abs=1e-12)

        def pole_at_origin(z):
            if not isinstance(z, np.ndarray):
                raise PoleError("pole at 0")
            return z

        with pytest.raises(PoleError):
            check_arc_length(pole_at_origin, (0.0, 1.0), samples=64)

    def test_off_circle_not_applicable(self):
        len_arc, len_image, note = check_arc_length(lambda z: 0.5 * z, (0.0, 1.0), samples=64)
        assert (len_arc, note) == (1.0, "image leaves the circle by 0.5")
        assert math.isnan(len_image)

    def test_only_package_errors_make_it_not_applicable(self):
        def failing_on_arrays(exc):
            def f(z):
                if isinstance(z, np.ndarray):
                    raise exc
                return z
            return f

        _, len_image, note = check_arc_length(failing_on_arrays(PoleError("pole")),
                                              (0.0, 1.0), samples=64)
        assert note == "boundary evaluation failed: pole" and math.isnan(len_image)
        with pytest.raises(TypeError):
            check_arc_length(failing_on_arrays(TypeError("bug")), (0.0, 1.0), samples=64)

    def test_flow_with_boundary_equality_case(self):
        flow = evolution_map(corollary_delta(PI), 0.0, 1.0)
        len_arc, len_image, note = check_arc_length(flow, (PI + 0.2, 2 * PI - 0.2), samples=256)
        assert note == "" and len_arc <= len_image + 1e-6
        assert len_image == pytest.approx(len_arc, abs=1e-8)

    def test_flow_with_boundary_strict_case(self, cor_i):
        flow = evolution_map(cor_i, 0.0, 1.0)
        len_arc, len_image, note = check_arc_length(flow, (PI + 0.2, 2 * PI - 0.2), samples=256)
        assert note == ""
        assert len_image > len_arc


class TestHalfPlaneJulia:
    def test_identity_equality(self):
        assert check_half_plane_julia(NevanlinnaRep(0.0, 1.0), upper_half_plane_grid()) == pytest.approx(0.0, abs=1e-15)

    def test_single_atom_margins(self):
        rep = NevanlinnaRep(0.0, 2.0, RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)))
        # Im Phi(i) = 3 >= 2, Im Phi(2i) = 4.5 >= 4
        assert check_half_plane_julia(rep, [1j]) == pytest.approx(-1.0)
        assert check_half_plane_julia(rep, [2j]) == pytest.approx(-0.5)
        assert check_half_plane_julia(rep, upper_half_plane_grid()) <= 1e-12

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            check_half_plane_julia(NevanlinnaRep(0.0, 1.0), [1.0 - 1j])
