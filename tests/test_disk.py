import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loewner
from loewner import (
    BoundaryPoint,
    CayleyMap,
    DomainError,
    PoleError,
    ValidationError,
    angular_derivative,
    pseudo_hyperbolic_distance,
)
from loewner.disk import on_circle
from conftest import hyperbolic_automorphism, hyperbolic_x
from reference import (
    ConstraintError,
    MobiusTransform,
    NevanlinnaRep,
    RealAtomicMeasure,
    boundary_image,
    build_automorphism,
    compose,
    identity,
    is_disk_automorphism,
    nevanlinna_eval,
)

PI = math.pi


def interior_points(max_r=0.95):
    return st.tuples(
        st.floats(min_value=0.0, max_value=max_r),
        st.floats(min_value=0.0, max_value=2 * PI),
    ).map(lambda p: p[0] * cmath.exp(1j * p[1]))


class TestBoundaryPoint:
    def test_angle_normalized(self):
        assert BoundaryPoint(2 * PI + 0.5).angle == pytest.approx(0.5)
        assert BoundaryPoint(-0.5).angle == pytest.approx(2 * PI - 0.5)

    def test_modulus_exactly_one(self):
        for a in np.linspace(0, 2 * PI, 17):
            assert abs(abs(BoundaryPoint(a).value) - 1.0) < 1e-15

    def test_from_complex_rejects_interior(self):
        with pytest.raises(Exception):
            BoundaryPoint.from_complex(0.5 + 0j)

    @pytest.mark.parametrize("z", [1.0 + 0.5e-9, (1.0 - 0.5e-9) * 1j, 1.0 + 2e-9,
                                   (1.0 - 2e-9) * 1j, complex(math.nan, 0.0)])
    def test_from_complex_takes_exactly_the_points_on_circle(self, z):
        if on_circle(z):
            assert BoundaryPoint.from_complex(z).angle == BoundaryPoint(cmath.phase(z)).angle
        else:
            with pytest.raises(ValidationError):
                BoundaryPoint.from_complex(z)


class TestPoleGuard:
    @pytest.mark.parametrize("evaluate, pole, message", [
        (MobiusTransform(0.0, 1.0, 1.0, 0.0).apply, 0j, "Mobius transform evaluated at its pole"),
        (CayleyMap(BoundaryPoint(0.0)).forward, 1.0 + 0j, "Cayley map evaluated at tau"),
        (CayleyMap(BoundaryPoint(0.0)).inverse, -1j, "inverse Cayley map evaluated at its pole"),
        (lambda z: nevanlinna_eval(NevanlinnaRep(0.0, 1.0, RealAtomicMeasure(
            ((0.5, 1.0),), (0.0, 1.0))), z), 0.5 + 0j,
         "evaluation point sits on a pole of the kernel"),
    ])
    def test_number_and_array_meet_the_same_guard(self, evaluate, pole, message):
        for z in (pole, np.array([0.1j, pole])):
            with pytest.raises(PoleError) as e:
                evaluate(z)
            assert str(e.value) == message

    @pytest.mark.parametrize("evaluate", [
        MobiusTransform(1.0, 0.0, 0.0, 1.0).apply,
        CayleyMap(BoundaryPoint(0.0)).forward,
        CayleyMap(BoundaryPoint(0.0)).inverse,
    ])
    def test_empty_array_maps_to_empty_array(self, evaluate):
        out = evaluate(np.array([], dtype=complex))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_nan_is_not_a_pole(self):
        with np.errstate(invalid="ignore"):
            out = MobiusTransform(0.0, 1.0, 1.0, 0.0).apply(
                np.array([complex(math.nan, 0.0), 2.0]))
        assert math.isnan(out[0].real) and out[1] == 0.5

    def test_pole_guard_stays_in_disk(self):
        """Only disk constructs a PoleError or spells the pole threshold
        1e-300; the other modules go through its ``guard_pole``."""
        found = {}
        for path in sorted(Path(loewner.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                func = node.func if isinstance(node, ast.Call) else None
                if (getattr(func, "id", None) == "PoleError"
                        or getattr(func, "attr", None) == "PoleError"):
                    found.setdefault("PoleError(...)", set()).add(path.name)
                if isinstance(node, ast.Constant) and repr(node.value) == "1e-300":
                    found.setdefault("1e-300", set()).add(path.name)
        assert found == {"PoleError(...)": {"disk.py"}, "1e-300": {"disk.py"}}


class TestMobius:
    def test_identity_case(self):
        m = identity()
        assert m.apply(0.3 + 0.1j) == 0.3 + 0.1j

    def test_hyperbolic_translation_at_origin(self):
        # z -> (z + x)/(1 + x z) with x = (e-1)/(e+1) sends 0 to x
        x = hyperbolic_x(1.0)
        m = MobiusTransform(1.0, x, x, 1.0)
        assert m.apply(0j) == pytest.approx(0.4621171572600098)

    def test_pole_case(self):
        m = MobiusTransform(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
        with pytest.raises(PoleError):
            m.apply(0j)

    def test_normalization(self):
        m = MobiusTransform(10.0, 0.0, 0.0, 5.0)
        assert max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)) == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(Exception):
            MobiusTransform(1.0, 2.0, 2.0, 4.0)

    def test_compose_inverse(self):
        m = hyperbolic_automorphism(0.7)
        both = compose(m, m.inverse())
        for z in (0.1 + 0.2j, -0.5j, 0.9):
            assert both.apply(z) == pytest.approx(z, abs=1e-14)

    def test_disk_automorphism_flag(self):
        assert is_disk_automorphism(hyperbolic_automorphism(1.0))
        assert not is_disk_automorphism(MobiusTransform(0.5, 0.0, 0.0, 1.0))


class TestPseudoHyperbolic:
    def test_coincident(self):
        assert pseudo_hyperbolic_distance(0j, 0j) == 0.0

    def test_from_origin_is_modulus(self):
        assert pseudo_hyperbolic_distance(0j, 0.5 + 0j) == pytest.approx(0.5)

    def test_direct_formula(self):
        assert pseudo_hyperbolic_distance(0.5 + 0j, -0.5 + 0j) == pytest.approx(0.8)

    def test_rejects_exterior(self):
        with pytest.raises(DomainError):
            pseudo_hyperbolic_distance(1.5 + 0j, 0j)

    @given(interior_points(), interior_points())
    @settings(max_examples=200, deadline=None)
    def test_range_and_symmetry(self, z1, z2):
        d = pseudo_hyperbolic_distance(z1, z2)
        assert 0.0 <= d < 1.0
        assert d == pytest.approx(pseudo_hyperbolic_distance(z2, z1), abs=1e-15)

    def test_invariance_under_automorphisms(self):
        rng = np.random.default_rng(7)
        m = build_automorphism(
            BoundaryPoint(PI), BoundaryPoint(0.0), dilation_at_fix1=2.5
        )
        for _ in range(100):
            z1, z2 = (
                0.95 * math.sqrt(rng.random()) * cmath.exp(2j * PI * rng.random())
                for _ in range(2)
            )
            before = pseudo_hyperbolic_distance(z1, z2)
            after = pseudo_hyperbolic_distance(m.apply(z1), m.apply(z2))
            assert abs(after - before) <= 1e-12


class TestCayley:
    def test_center_to_i(self):
        assert CayleyMap(BoundaryPoint(0.0)).forward(0j) == pytest.approx(1j)

    def test_minus_one_to_zero(self):
        assert CayleyMap(BoundaryPoint(0.0)).forward(-1.0 + 0j) == pytest.approx(0j)

    def test_pole_at_tau(self):
        with pytest.raises(PoleError):
            CayleyMap(BoundaryPoint(0.0)).forward(1.0 + 0j)

    def test_round_trip(self):
        tau = BoundaryPoint(1.3)
        for r in (0.0, 0.3, 0.7, 0.95):
            for k in range(8):
                z = r * cmath.exp(1j * PI * k / 4)
                w = CayleyMap(tau).forward(z)
                assert abs(CayleyMap(tau).inverse(w) - z) < 1e-14

    def test_maps_into_upper_half_plane(self):
        tau = BoundaryPoint(2.0)
        for r in (0.2, 0.5, 0.8, 0.95):
            for k in range(16):
                z = r * cmath.exp(1j * PI * k / 8)
                assert CayleyMap(tau).forward(z).imag > 0.0

    def test_boundary_image_is_real(self):
        c = CayleyMap(BoundaryPoint(0.0))
        assert boundary_image(c, BoundaryPoint(PI)) == pytest.approx(0.0)
        assert boundary_image(c, BoundaryPoint(PI / 2)) == pytest.approx(-1.0)
        assert boundary_image(c, BoundaryPoint(3 * PI / 2)) == pytest.approx(1.0)


class TestBuildAutomorphism:
    def test_matches_closed_form(self):
        m = build_automorphism(
            BoundaryPoint(PI), BoundaryPoint(0.0), dilation_at_fix1=math.e
        )
        ref = hyperbolic_automorphism(1.0)
        for z in (0j, 0.5 + 0.3j, -0.7j, 0.9 + 0j):
            assert m.apply(z) == pytest.approx(ref.apply(z), abs=1e-13)

    def test_unit_dilation_is_identity(self):
        m = build_automorphism(
            BoundaryPoint(PI), BoundaryPoint(0.0), dilation_at_fix1=1.0
        )
        for z in (0j, 0.4 - 0.2j):
            assert m.apply(z) == z

    def test_rotated_fixed_points_via_angular_derivative(self):
        # fixing +-i with dilation e^2 at -i; rotation conjugate of the +-1 case
        lo, hi = BoundaryPoint(3 * PI / 2), BoundaryPoint(PI / 2)
        m = build_automorphism(lo, hi, dilation_at_fix1=math.exp(2.0))
        est_lo = angular_derivative(m.apply, lo, lo)
        est_hi = angular_derivative(m.apply, hi, hi)
        assert not est_lo.diverged and not est_hi.diverged
        assert est_lo.value == pytest.approx(math.exp(2.0), rel=1e-6)
        assert est_hi.value == pytest.approx(math.exp(-2.0), rel=1e-6)
        # the dilation product sits exactly on the two-point lower bound
        assert est_lo.value * est_hi.value == pytest.approx(1.0, abs=1e-6)

    def test_interior_pair(self):
        ref = build_automorphism(
            BoundaryPoint(PI), BoundaryPoint(0.0), dilation_at_fix1=math.e
        )
        z0 = 0.2 + 0.1j
        m = build_automorphism(
            BoundaryPoint(PI), BoundaryPoint(0.0), interior_pair=(z0, ref.apply(z0))
        )
        for z in (0j, 0.3 - 0.4j):
            assert m.apply(z) == pytest.approx(ref.apply(z), abs=1e-12)

    def test_infeasible_interior_pair(self):
        with pytest.raises(ConstraintError):
            build_automorphism(
                BoundaryPoint(PI),
                BoundaryPoint(0.0),
                interior_pair=(0.2 + 0.1j, 0.2 - 0.5j),
            )

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            build_automorphism(BoundaryPoint(0.0), BoundaryPoint(0.0), dilation_at_fix1=2.0)
        with pytest.raises(DomainError):
            build_automorphism(BoundaryPoint(0.0), BoundaryPoint(PI))
        with pytest.raises(DomainError):
            build_automorphism(BoundaryPoint(0.0), BoundaryPoint(PI), dilation_at_fix1=-1.0)
