import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loewner
from loewner import (
    BerksonPortaField,
    BoundaryPoint,
    ConfigError,
    CorollaryField,
    DomainError,
    MeasureSchedule,
    ReciprocalField,
    ScheduleSegment,
    ValidationError,
    angular_derivative,
    circle_measure,
    field_from_dict,
    pseudo_hyperbolic_distance,
)
from loewner.generators import MATCH_TOL, exp_integral, kernel_probe_fields, windows
from loewner.grids import polar_grid
from bench_configs import BENCH_CONFIGS
from conftest import (
    corollary_delta,
    example_three_atoms,
    parabolic_field,
    radial_field,
    two_segment_field,
)
from reference import (
    InfeasibleError,
    RealAtomicMeasure,
    build_three_brfp_map,
    corollary_q_eval,
    herglotz_eval,
    herglotz_zero_angle,
    nevanlinna_eval,
    null_quotient,
)

PI = math.pi
TARGETS = (BoundaryPoint(PI / 2), BoundaryPoint(3 * PI / 2), BoundaryPoint(0.0))


def atom_map(mass=1.0):
    measure = RealAtomicMeasure(((0.0, mass),), (-1.0, 1.0), inside=True)
    return build_three_brfp_map(-1.0, 1.0, measure, TARGETS)


class TestFieldEval:
    def test_radial(self):
        assert radial_field().frozen_at(0.0)(0.3 + 0j) == pytest.approx(-0.3)

    def test_parabolic(self):
        fld = parabolic_field()
        for z in (0j, 0.4 - 0.2j):
            assert fld.frozen_at(0.0)(z) == pytest.approx((1 - z) ** 2)

    def test_corollary_single_atom_closed_form(self):
        fld = corollary_delta(PI)
        assert fld.frozen_at(0.0)(0j) == pytest.approx(0.5)
        for z in (0.3 + 0.1j, -0.6j, 0.8 + 0j):
            assert fld.frozen_at(0.5)(z) == pytest.approx(0.5 * (1 - z * z))

    def test_corollary_vanishes_at_both_ends(self):
        fld = corollary_delta(PI / 2)
        for r in (0.9, 0.99, 0.999):
            assert abs(fld.frozen_at(0.5)(r + 0j)) < 3 * (1 - r)
            assert abs(fld.frozen_at(0.5)(-r + 0j)) < 3 * (1 - r)

    def test_reciprocal_zero_set(self):
        fld = example_three_atoms()
        radii = [0.9, 0.99, 0.999, 0.9999]
        for sigma, _ in fld.data:
            mags = [abs(fld.frozen_at(0.0)(r * sigma.value)) for r in radii]
            assert all(b < a for a, b in zip(mags, mags[1:]))
            assert mags[-1] < 1e-3

    def test_corollary_zero_at_prescribed_point(self):
        fld = corollary_delta(PI / 2)
        radii = [0.9, 0.99, 0.999, 0.9999]
        mags = [abs(fld.frozen_at(0.5)(-r + 0j)) for r in radii]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_schedule_domain_error_propagates(self):
        fld = corollary_delta(PI, t_end=1.0)
        with pytest.raises(DomainError):
            fld.frozen_at(2.0)(0j)

    def test_two_segment_switches(self):
        fld = two_segment_field()
        assert fld.frozen_at(0.5)(0j) == pytest.approx(0.5)
        assert fld.frozen_at(1.0)(0j) == pytest.approx(0.25 * (1 - 1j))


@st.composite
def atom_pairs(draw):
    """Three to eight (angle, weight) atoms, clear of angle 0."""
    angles = draw(st.lists(st.floats(0.05, 2 * PI - 0.05), min_size=3, max_size=8,
                           unique_by=lambda a: round(a, 6)))
    weights = draw(st.lists(st.floats(0.05, 3.0), min_size=len(angles),
                            max_size=len(angles)))
    return list(zip(angles, weights))


disk_points = st.builds(lambda r, a: complex(r * math.cos(a), r * math.sin(a)),
                        st.floats(0.0, 0.95), st.floats(0.0, 2 * PI))


class TestPackedKernel:
    """frozen_at against the per-atom reference formulas, to the bit, on a
    Python complex, a one-point state, a 16-point state and a 4x4 state."""

    @staticmethod
    def assert_same(g, ref, z):
        assert g(z) == ref(z)
        ring = z * np.exp(2j * PI * np.arange(16) / 16)
        for zs in (np.array([z]), ring, ring.reshape(4, 4)):
            got = g(zs)
            assert got.shape == zs.shape
            np.testing.assert_array_equal(got, ref(zs))

    def test_no_atoms(self):
        mu = circle_measure([])
        fld = BerksonPortaField(0.5j, p_measure=mu, imag_const=-0.5)
        tau, taub = fld.tau, fld.tau.conjugate()
        self.assert_same(fld.frozen_at(0.5), lambda z: (
            (tau - z) * (1.0 - taub * z) * herglotz_eval(mu, -0.5, z)), 0.3 + 0.1j)

    @given(atom_pairs(), st.floats(-2.0, 2.0).filter(lambda c: c != 0.0),
           disk_points, disk_points)
    @settings(max_examples=60, deadline=None)
    def test_berkson_porta(self, pairs, c, tau, z):
        mu = circle_measure(pairs)
        fld = BerksonPortaField(0.9 * tau, p_measure=mu, imag_const=c)
        tau, taub = fld.tau, fld.tau.conjugate()
        self.assert_same(fld.frozen_at(0.5), lambda z: (
            (tau - z) * (1.0 - taub * z) * herglotz_eval(mu, c, z)), z)

    @given(atom_pairs(), disk_points, disk_points)
    @settings(max_examples=60, deadline=None)
    def test_reciprocal(self, pairs, tau, z):
        fld = ReciprocalField(0.9 * tau, tuple((BoundaryPoint(a), w) for a, w in pairs))
        mu = circle_measure(pairs)
        tau, taub = fld.tau, fld.tau.conjugate()
        self.assert_same(fld.frozen_at(0.5), lambda z: (
            (tau - z) * (1.0 - taub * z) / herglotz_eval(mu, 0.0, z)), z)

    @given(atom_pairs(), disk_points)
    @settings(max_examples=60, deadline=None)
    def test_corollary(self, pairs, z):
        total = sum(w for _, w in pairs)
        nu = circle_measure([(a, w / total) for a, w in pairs], excluded_angle=0.0)
        fld = CorollaryField(MeasureSchedule((ScheduleSegment(0.0, 1.0, nu),)))
        self.assert_same(fld.frozen_at(0.5), lambda z: (
            0.25 * (1.0 - z) ** 2 * (1.0 + z) * corollary_q_eval(nu, z)), z)


class TestGeneratorAdmissibility:
    @pytest.mark.parametrize(
        "fld",
        [radial_field(), parabolic_field(), example_three_atoms(),
         corollary_delta(PI), corollary_delta(PI / 2), two_segment_field()],
        ids=["radial", "parabolic", "three-atoms", "cor-pi", "cor-i", "two-seg"],
    )
    def test_herglotz_factor_has_nonnegative_real_part(self, fld):
        # Berkson-Porta: G = (tau - z)(1 - conj(tau) z) p; for the corollary
        # field (tau = 1) this gives p = G / (1 - z)^2
        z = polar_grid(np.linspace(0.06, 0.96, 16), 16)
        tau = fld.tau
        p = fld.frozen_at(0.0)(z) / ((tau - z) * (1.0 - np.conj(tau) * z))
        assert float(np.min(p.real)) >= 0.0


class TestNullQuotient:
    def test_corollary_at_minus_one_is_one(self):
        for fld in (corollary_delta(PI), corollary_delta(PI / 2), two_segment_field()):
            nq = null_quotient(fld, BoundaryPoint(PI), 0.5)
            assert not nq.diverged
            assert nq.value.real == pytest.approx(1.0, abs=1e-8)
            assert abs(nq.value.imag) < 1e-8

    def test_delta_minus_one_at_plus_one(self):
        nq = null_quotient(corollary_delta(PI), BoundaryPoint(0.0), 0.5)
        assert not nq.diverged
        assert nq.value.real == pytest.approx(-1.0, abs=1e-8)

    def test_radial_field_diverges_at_one(self):
        nq = null_quotient(radial_field(), BoundaryPoint(0.0))
        assert nq.diverged

    def test_reciprocal_dilation_rate(self):
        fld = example_three_atoms()
        for sigma, alpha in fld.data:
            nq = null_quotient(fld, sigma)
            assert not nq.diverged
            assert nq.value.real == pytest.approx(1.0 / (2.0 * alpha), rel=1e-7)


def bench_reciprocal_fields():
    """The reciprocal fields of the seed-1 and seed-7 verify_dilation configs."""
    return [field_from_dict(BENCH_CONFIGS["verify_dilation", seed]["field"]) for seed in (1, 7)]


@st.composite
def hyperbolic_reciprocal_fields(draw):
    """A reciprocal field of two to five atoms whose tau on the circle is a
    zero of h, in a gap between two atoms drawn at random."""
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * PI - 0.2), min_size=2, max_size=5)))
    gaps = [b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2 * PI])]
    assume(min(gaps) >= 0.2)
    weights = draw(st.lists(st.floats(0.2, 3.0), min_size=len(angles), max_size=len(angles)))
    pairs = list(zip(angles, weights))
    k = draw(st.integers(0, len(angles) - 1))
    theta = herglotz_zero_angle(pairs, angles[k], angles[k] + gaps[k])
    return ReciprocalField(BoundaryPoint(theta).value,
                           tuple((BoundaryPoint(a), w) for a, w in pairs))


class TestDerivativeAt:
    """The closed-form field derivative ``KernelData.derivative_at``
    against the radial reference ``null_quotient``."""

    def test_atoms_match_the_radial_limit(self):
        for fld in bench_reciprocal_fields() + [example_three_atoms()]:
            kd = fld.kernel_data(0.0)
            for sigma, alpha in fld.data:
                exact = kd.derivative_at(sigma)
                assert exact == pytest.approx(abs(sigma.value - fld.tau) ** 2 / (2.0 * alpha),
                                              rel=1e-14)
                radial = null_quotient(fld, sigma)
                assert not radial.diverged
                assert abs(radial.value - exact) <= 1e-10 * abs(exact)

    def test_a_parabolic_tau_has_rate_zero(self):
        # reciprocal (bench), bp_const and bp_herglotz fields with tau on the circle
        fields = bench_reciprocal_fields() + [parabolic_field(), kernel_probe_fields()[1]]
        for fld in fields:
            tau = BoundaryPoint.from_complex(fld.tau)
            assert fld.kernel_data(0.0).derivative_at(tau) == 0
            radial = null_quotient(fld, tau)
            assert not radial.diverged
            assert abs(radial.value) <= 1e-8

    def test_none_where_g_does_not_vanish(self):
        one = BoundaryPoint(0.0)
        assert radial_field().kernel_data(0.0).derivative_at(one) is None
        assert null_quotient(radial_field(), one).diverged
        # off the atoms and tau; and the corollary keeps its own normalisation
        assert example_three_atoms().kernel_data(0.0).derivative_at(BoundaryPoint(1.0)) is None
        assert parabolic_field().kernel_data(0.0).derivative_at(BoundaryPoint(1.0)) is None
        assert corollary_delta(PI).kernel_data(0.5).derivative_at(BoundaryPoint(PI)) is None

    def test_points_match_within_match_tol(self):
        kd = example_three_atoms().kernel_data(0.0)
        assert kd.derivative_at(BoundaryPoint(0.5 * MATCH_TOL)) == kd.derivative_at(
            BoundaryPoint(0.0))
        assert kd.derivative_at(BoundaryPoint(2.0 * MATCH_TOL)) is None
        par = parabolic_field().kernel_data(0.0)
        assert par.derivative_at(BoundaryPoint(-0.5 * MATCH_TOL)) == 0
        assert par.derivative_at(BoundaryPoint(2.0 * MATCH_TOL)) is None

    @given(hyperbolic_reciprocal_fields())
    @settings(max_examples=60, deadline=None)
    def test_a_hyperbolic_tau_balances_the_atoms(self, fld):
        """With tau at a zero of h, sum_j 1/G'(sigma_j) = -1/G'(tau): the
        two sides are sum_j 2 alpha_j/|sigma_j - tau|^2 from the atom and
        the tau formulas."""
        kd = fld.kernel_data(0.0)
        d_tau = kd.derivative_at(BoundaryPoint.from_complex(fld.tau))
        assert d_tau.real < 0.0  # attracting: a hyperbolic Denjoy-Wolff point
        lhs = sum(1.0 / kd.derivative_at(sigma) for sigma, _ in fld.data)
        assert abs(lhs + 1.0 / d_tau) <= 1e-12 * abs(1.0 / d_tau)

    def test_only_boundary_imports_extrapolate(self):
        """The package keeps one radial limit, the measurement's: only
        ``boundary`` imports ``extrapolate``."""
        importers = set()
        for path in sorted(Path(loewner.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n.rsplit(".", 1)[-1] == "extrapolate" for n in names):
                    importers.add(path.name)
        assert importers == {"boundary.py"}


class TestFieldData:
    def test_tau_and_null_points(self):
        cor = corollary_delta(PI)
        assert cor.tau == 1.0 + 0j
        assert cor.null_points == (BoundaryPoint(PI),)
        rec = example_three_atoms()
        assert rec.tau == 0j
        assert rec.null_points == tuple(p for p, _ in rec.data)
        assert parabolic_field().tau == 1.0 + 0j
        assert parabolic_field().null_points == ()

    def test_corollary_expected_dilation_closed_form(self):
        fld = two_segment_field()
        s, t = 0.25, 1.75
        assert fld.expected_dilation(BoundaryPoint(PI), s, t) == math.exp(t - s)
        # unit mass at pi on [0, 1), none on [1, 2)
        mass = 1.0 - s
        assert fld.expected_dilation(BoundaryPoint(0.0), s, t) == math.exp(-mass)
        assert fld.expected_dilation(BoundaryPoint(PI / 2), s, t) is None
        # a point within MATCH_TOL names the field's point
        assert fld.expected_dilation(BoundaryPoint(PI + 5e-10), s, t) == math.exp(t - s)
        assert fld.expected_dilation(BoundaryPoint(-5e-10), s, t) == math.exp(-mass)
        assert fld.expected_dilation(BoundaryPoint(2e-9), s, t) is None

    def test_reciprocal_expected_dilation_integrates_null_quotient(self):
        # the null quotient G'(sigma) = 1/(2 alpha) of tau = 0, in closed form
        fld = example_three_atoms()
        for sigma, alpha in fld.data:
            expected = fld.expected_dilation(sigma, 0.5, 1.5)
            assert expected == pytest.approx(math.exp(1.0 / (2.0 * alpha)), rel=1e-14)
        assert radial_field().expected_dilation(BoundaryPoint(0.0), 0.0, 1.0) is None

    def test_field_classes_stay_in_generators(self):
        """No module but generators (and the package's re-exports) names a
        field class; the others use the shared field interface."""
        classes = {"BerksonPortaField", "ReciprocalField", "CorollaryField"}
        offenders = []
        for path in sorted(Path(loewner.__file__).parent.glob("*.py")):
            if path.name in ("generators.py", "__init__.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in classes:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
        assert offenders == []


def _callers(tree, name):
    """The enclosing function of each call of a function or method ``name``."""
    found = []

    def visit(node, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None)):
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


class TestWindows:
    def test_cut_at_the_breakpoints(self):
        assert list(windows(two_segment_field(), 0.25, 1.75)) == [
            (0.25, 1.0, 0.625), (1.0, 1.75, 1.375)]
        assert list(windows(radial_field(), 0.5, 2.0)) == [(0.5, 2.0, 1.25)]

    def test_a_hold_last_tail_is_one_window(self):
        fld = corollary_delta(PI, t_end=1.0, hold_last=True)
        assert list(windows(fld, 0.5, 3.0)) == [(0.5, 1.0, 0.75), (1.0, 3.0, 2.0)]
        assert fld.expected_dilation(BoundaryPoint(0.0), 0.5, 3.0) == math.exp(-2.5)

    def test_an_empty_interval_has_no_window(self):
        assert list(windows(two_segment_field(), 1.0, 1.0)) == []
        assert two_segment_field().expected_dilation(BoundaryPoint(0.0), 2.0, 2.0) == 1.0

    def test_rate_integral_stops_at_a_missing_rate(self):
        rates = iter([0.5, None])
        assert exp_integral(two_segment_field(), 0.0, 2.0, lambda u: next(rates)) is None
        assert exp_integral(two_segment_field(), 0.0, 2.0, lambda u: u) == math.exp(
            0.5 * 1.0 + 1.5 * 1.0)

    def test_only_windows_reads_breakpoints(self):
        """The package cuts [s, t] in one place: ``breakpoints`` is called
        only by ``generators.windows`` and by the fields' own
        ``breakpoints``, which hand the question to their schedules."""
        callers = set()
        for path in sorted(Path(loewner.__file__).parent.glob("*.py")):
            for fn in _callers(ast.parse(path.read_text()), "breakpoints"):
                callers.add((path.name, fn))
        assert callers == {("generators.py", "windows"), ("generators.py", "breakpoints")}


class TestThreeBrfpBuild:
    def test_hand_solved_system(self):
        m = atom_map(1.0)
        assert m.rep.alpha == pytest.approx(0.0, abs=1e-14)
        assert m.rep.beta == pytest.approx(2.0)
        assert m.tau_dilation == pytest.approx(0.5)
        assert m.sigma1_dilation == pytest.approx(3.0)
        assert m.sigma2_dilation == pytest.approx(3.0)

    def test_empty_measure_is_identity(self):
        m = build_three_brfp_map(
            -1.0, 1.0, RealAtomicMeasure((), (-1.0, 1.0)), TARGETS
        )
        assert m.rep.beta == pytest.approx(1.0)
        assert m.tau_dilation == pytest.approx(1.0)
        for z in (0j, 0.3 - 0.4j, 0.9j):
            assert m(z) == pytest.approx(z, abs=1e-13)

    def test_interior_support_beta_formula(self):
        atoms = ((-0.5, 0.3), (0.2, 1.1), (0.7, 0.05))
        measure = RealAtomicMeasure(atoms, (-1.0, 1.0), inside=True)
        m = build_three_brfp_map(-1.0, 1.0, measure, TARGETS)
        expected = 1.0 + sum(
            w * (1 + t * t) / ((1.0 - t) * (t + 1.0)) for t, w in atoms
        )
        assert m.rep.beta == pytest.approx(expected)
        assert m.rep.beta >= 1.0
        assert m.tau_dilation <= 1.0

    def test_outside_support_small_mass_builds(self):
        measure = RealAtomicMeasure(((2.0, 0.3),), (-1.0, 1.0), inside=False)
        m = build_three_brfp_map(-1.0, 1.0, measure, TARGETS)
        assert 0.0 < m.rep.beta <= 1.0
        assert m.tau_dilation >= 1.0

    def test_outside_support_excess_mass_infeasible(self):
        measure = RealAtomicMeasure(((2.0, 1.0),), (-1.0, 1.0), inside=False)
        with pytest.raises(InfeasibleError):
            build_three_brfp_map(-1.0, 1.0, measure, TARGETS)

    def test_singular_window(self):
        with pytest.raises(DomainError):
            build_three_brfp_map(1.0, 1.0, RealAtomicMeasure((), (-1.0, 1.0)), TARGETS)

    def test_window_mismatch(self):
        with pytest.raises(ValidationError):
            build_three_brfp_map(-2.0, 2.0, RealAtomicMeasure((), (-1.0, 1.0)), TARGETS)

    def test_transform_fixes_xis(self):
        m = atom_map(0.7)
        for xi in (-1.0, 1.0):
            assert nevanlinna_eval(m.rep, complex(xi)) == pytest.approx(xi, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_tau_dilation_below_one_for_interior_support(self, mass):
        m = atom_map(mass)
        assert m.tau_dilation == pytest.approx(1.0 / (1.0 + mass), rel=1e-12)
        assert m.tau_dilation < 1.0


class TestThreeBrfpEval:
    def test_radial_limit_at_tau(self):
        m = atom_map(1.0)
        tau = m.tau.value
        gaps = [abs(m(r * tau) - tau) for r in (0.9, 0.99, 0.999)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_fixes_all_three_targets_radially(self):
        m = atom_map(2.0)
        for p in (m.sigma1, m.sigma2, m.tau):
            z = 0.9999 * p.value
            assert abs(m(z) - p.value) < 1e-3

    def test_maps_into_disk(self):
        m = atom_map(1.0)
        zs = polar_grid(np.linspace(0.06, 0.96, 16), 16)
        ws = m(zs)
        assert float(np.max(np.abs(ws))) < 1.0

    def test_strict_schwarz_pick(self):
        m = atom_map(1.0)
        before = pseudo_hyperbolic_distance(0.2 + 0j, -0.2 + 0j)
        after = pseudo_hyperbolic_distance(
            m(0.2 + 0j), m(-0.2 + 0j)
        )
        assert after < before

    def test_measured_dilations_match_analytic(self):
        m = atom_map(1.0)
        at_tau = angular_derivative(m, m.tau, m.tau)
        at_s1 = angular_derivative(m, m.sigma1, m.sigma1)
        assert at_tau.value == pytest.approx(0.5, rel=1e-4)
        assert at_s1.value == pytest.approx(3.0, rel=1e-4)

    def test_dilation_products_meet_two_point_bound(self):
        m = atom_map(1.0)
        dils = (m.tau_dilation, m.sigma1_dilation, m.sigma2_dilation)
        assert dils[0] * dils[1] == pytest.approx(1.5)
        for i in range(3):
            for j in range(i + 1, 3):
                assert dils[i] * dils[j] >= 1.0


class TestFieldJson:
    @pytest.mark.parametrize(
        "fld",
        [radial_field(), parabolic_field(), example_three_atoms(),
         corollary_delta(PI), two_segment_field()],
        ids=["radial", "parabolic", "three-atoms", "cor-pi", "two-seg"],
    )
    def test_round_trip(self, fld):
        again = field_from_dict(json.loads(json.dumps(fld.to_dict())))
        assert again == fld

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as e:
            field_from_dict({"kind": "nope"})
        assert e.value.pointer == "/kind"

    def test_foreign_payload_rejected(self):
        d = corollary_delta(PI).to_dict()
        d["data"] = []
        with pytest.raises(ConfigError) as e:
            field_from_dict(d)
        assert e.value.pointer == "/data"

    def test_validation_bypass(self):
        bad = {
            "kind": "corollary",
            "schedule": {"segments": [{"t0": 0.0, "t1": 1.0, "measure": {
                "atoms": [{"angle": PI, "weight": 1.5}], "excluded_angle": 0.0}}]},
        }
        with pytest.raises(ConfigError) as e:
            field_from_dict(bad)
        assert e.value.pointer == "/schedule/segments/0/measure"
        fld = field_from_dict(bad, validate=False)
        assert fld.frozen_at(0.5)(0j) == pytest.approx(0.75)


class TestFieldValidation:
    def test_reciprocal_needs_positive_alpha(self):
        with pytest.raises(ValidationError):
            ReciprocalField(0j, ((BoundaryPoint(0.0), -1.0),))
        # read from JSON, the error names the member
        with pytest.raises(ConfigError) as info:
            field_from_dict(
                {"kind": "reciprocal", "tau": {"re": 0.0, "im": 0.0},
                 "data": [{"angle": 0.0, "alpha": -1.0}]}
            )
        assert info.value.pointer == "/data/0/alpha"

    def test_constant_p_takes_no_imag_const(self):
        assert BerksonPortaField(0j, p_const=1.0 + 0.5j).imag_const == 0.0
        with pytest.raises(ValidationError):
            BerksonPortaField(0j, p_const=1.0, imag_const=0.5)

    def test_tau_must_avoid_prescribed_points(self):
        with pytest.raises(ConfigError) as e:
            field_from_dict(
                {"kind": "reciprocal", "tau": {"angle": 0.0},
                 "data": [{"angle": 0.0, "alpha": 1.0}]}
            )
        assert e.value.pointer == "/"  # the payload itself

    @pytest.mark.parametrize("tau", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(math.inf, 0.0), 1.5 + 0j])
    def test_tau_outside_the_closed_disk_is_rejected(self, tau):
        with pytest.raises(ValidationError):
            BerksonPortaField(tau, p_const=1.0)
        with pytest.raises(ValidationError):
            ReciprocalField(tau, ((BoundaryPoint(1.0), 1.0),))

    def test_corollary_needs_probability_segments(self):
        nu = circle_measure([(PI, 0.5)], excluded_angle=0.0)
        with pytest.raises(ValidationError):
            CorollaryField(MeasureSchedule((ScheduleSegment(0.0, 1.0, nu),)))

    def test_corollary_needs_excluded_origin(self):
        nu = circle_measure([(PI, 1.0)])
        with pytest.raises(ValidationError):
            CorollaryField(MeasureSchedule((ScheduleSegment(0.0, 1.0, nu),)))
