import math

import numpy as np
import pytest

from loewner import (
    BoundaryPoint,
    DomainError,
    IntegrationError,
    NotTangentError,
    ToleranceSettings,
    ValidationError,
    evolution_map,
    evolve,
    evolve_at,
    evolve_on_circle,
    pseudo_hyperbolic_distance,
    rk4_oracle,
)
from loewner.grids import random_interior_pairs
from conftest import (
    corollary_delta,
    example_three_atoms,
    hyperbolic_automorphism,
    hyperbolic_x,
    parabolic_field,
    radial_field,
    two_segment_field,
)
from reference import disk_grid_64

PI = math.pi


class OutwardField:
    """Test double: constant field G = 1, which pushes trajectories out of
    the disk so failure paths can be exercised. Not a generator."""

    def breakpoints(self, s, t):
        return []

    def frozen_at(self, t):
        return lambda z: np.ones_like(z) if isinstance(z, np.ndarray) else 1.0 + 0j


class ExcursionField(OutwardField):
    """Test double: rotation about 0.6, G(z) = i (z - 0.6).  The orbit of
    0.1 is 0.6 - 0.5 e^{it}: it leaves the disk once cos t < -0.65 and is
    back at 0.1 at t = 2 pi.  Not a generator."""

    def frozen_at(self, t):
        return lambda z: 1j * (z - 0.6)


class TestEvolveClosedForms:
    def test_radial_flow(self):
        w = evolve(radial_field(), 0.0, 1.0, 0.5 + 0j)
        assert w == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)

    def test_hyperbolic_group_at_origin(self):
        w = evolve(corollary_delta(PI), 0.0, 1.0, 0j)
        assert w == pytest.approx(0.4621171572600098, abs=1e-9)

    def test_parabolic_closed_form(self):
        fld = parabolic_field()
        assert evolve(fld, 0.0, 1.0, 0j) == pytest.approx(0.5, abs=1e-9)
        for t in (0.3, 2.0):
            for z in (0.2 + 0.3j, -0.5j):
                expected = (z + t * (1 - z)) / (1 + t * (1 - z))
                assert evolve(fld, 0.0, t, z) == pytest.approx(expected, abs=1e-9)

    def test_vector_matches_scalar_inputs(self):
        fld = corollary_delta(PI / 2)
        zs = np.array([0.1 + 0.2j, -0.4j, 0.7 + 0j])
        ws = evolve(fld, 0.0, 1.0, zs)
        assert ws.shape == zs.shape
        # same field, same window: scalar results agree to solver accuracy
        for z, w in zip(zs, ws):
            assert evolve(fld, 0.0, 1.0, complex(z)) == pytest.approx(w, abs=1e-9)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            evolve(radial_field(), 1.0, 0.5, 0j)
        with pytest.raises(DomainError):
            evolve(radial_field(), -0.5, 0.5, 0j)
        with pytest.raises(DomainError):
            evolve(radial_field(), 0.0, 1.0, 1.0 + 0j)


class TestEvolutionFamilyLaws:
    def test_identity_when_s_equals_t(self):
        ev = evolution_map(radial_field(), 0.7, 0.7)
        for z in (0j, 0.3 - 0.2j, 0.9 + 0j):
            assert ev(z) == z

    def test_matches_closed_form_automorphism_on_grid(self):
        ev = evolution_map(corollary_delta(PI), 0.0, 1.0)
        ref = hyperbolic_automorphism(1.0)
        zs = disk_grid_64()
        assert float(np.max(np.abs(ev(zs) - ref.apply(zs)))) < 1e-8

    @pytest.mark.parametrize(
        "fld,t1",
        [
            (radial_field(), 1.0),
            (parabolic_field(), 1.0),
            (example_three_atoms(), 1.0),
            (corollary_delta(PI), 1.0),
            (corollary_delta(PI / 2), 1.0),
            (two_segment_field(), 2.0),
        ],
        ids=["radial", "parabolic", "three-atoms", "cor-pi", "cor-i", "two-seg"],
    )
    def test_composition_law(self, fld, t1):
        zs = disk_grid_64()
        direct = evolve(fld, 0.0, t1, zs)
        for frac in (0.25, 0.5, 0.75):
            u = frac * t1
            through = evolve(fld, u, t1, evolve(fld, 0.0, u, zs))
            assert float(np.max(np.abs(direct - through))) < 1e-9

    def test_disk_invariance_strict(self):
        fld = two_segment_field()
        for u in np.linspace(0.25, 2.0, 8):
            w = evolve(fld, 0.0, float(u), disk_grid_64())
            assert float(np.max(np.abs(w))) < 1.0

    def test_schwarz_pick_contraction(self):
        fld = corollary_delta(PI / 2)
        pairs = random_interior_pairs(100)
        z1 = np.array([p[0] for p in pairs])
        z2 = np.array([p[1] for p in pairs])
        w1, w2 = evolve(fld, 0.0, 1.0, z1), evolve(fld, 0.0, 1.0, z2)
        for a, b, wa, wb in zip(z1, z2, w1, w2):
            d0 = pseudo_hyperbolic_distance(a, b)
            d1 = pseudo_hyperbolic_distance(wa, wb)
            assert d1 <= d0 + 1e-10

    def test_time_lipschitz_bound(self):
        # |phi_{s,u}(z) - phi_{s,t}(z)| <= max |G| along the way * |t - u|
        fld = corollary_delta(PI / 2, t_end=2.0)
        z = 0.4 + 0.3j
        times = np.linspace(0.0, 2.0, 9)
        states = [evolve(fld, 0.0, float(t), z) for t in times]
        # segments are right-open, so sample the field just inside the end
        bound = max(
            abs(fld.frozen_at(min(float(t), 2.0 - 1e-9))(w)) for t, w in zip(times, states)
        )
        for (ta, wa), (tb, wb) in zip(zip(times, states), zip(times[1:], states[1:])):
            assert abs(wb - wa) <= 1.05 * bound * (tb - ta) + 1e-12

    def test_origin_derivative_non_increasing_for_radial_dw(self):
        fld = example_three_atoms()
        h = 1e-5
        mods = []
        for t in np.linspace(0.0, 2.0, 9):
            w = evolve(fld, 0.0, float(t), np.array([h + 0j, -h + 0j]))
            mods.append(abs((w[0] - w[1]) / (2 * h)))
        assert all(b <= a + 1e-9 for a, b in zip(mods, mods[1:]))
        # rate check: |phi_t'(0)| = exp(-t/3) for three unit atoms
        assert mods[-1] == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-4)


class TestEvolveAt:
    FIELDS = [
        (corollary_delta(PI / 2), 1.0),
        (example_three_atoms(), 1.0),
        (parabolic_field(), 1.0),
        (two_segment_field(), 2.0),
    ]
    IDS = ["corollary", "reciprocal", "berkson-porta", "two-seg"]

    @pytest.mark.parametrize("fld,t1", FIELDS, ids=IDS)
    @pytest.mark.parametrize("z", [0.3 - 0.4j, disk_grid_64()], ids=["scalar", "array"])
    def test_one_time_is_evolve(self, fld, t1, z):
        (w,) = evolve_at(fld, 0.2, [t1], z)
        assert np.all(w == evolve(fld, 0.2, t1, z))

    def test_snapshots_at_breakpoints_are_evolve(self):
        # a requested time on a schedule breakpoint cuts no extra window
        fld = two_segment_field()
        zs = disk_grid_64()
        first, last = evolve_at(fld, 0.0, [1.0, 2.0], zs)
        assert np.all(first == evolve(fld, 0.0, 1.0, zs))
        assert np.all(last == evolve(fld, 0.0, 2.0, zs))

    @pytest.mark.parametrize("fld,t1", FIELDS, ids=IDS)
    def test_snapshots_match_separate_evolves(self, fld, t1):
        zs = disk_grid_64()
        times = [float(u) for u in np.linspace(0.0, t1, 9)]
        snaps = evolve_at(fld, 0.0, times, zs)
        assert len(snaps) == len(times)
        assert np.all(snaps[0] == zs)
        for u, w in zip(times, snaps):
            assert float(np.max(np.abs(w - evolve(fld, 0.0, u, zs)))) < 1e-9

    def test_scalar_snapshots_and_repeats(self):
        fld = corollary_delta(PI)
        snaps = evolve_at(fld, 0.0, [0.5, 0.5, 1.0], 0j)
        assert all(isinstance(w, complex) for w in snaps)
        assert snaps[0] == snaps[1]
        assert snaps[2] == pytest.approx(hyperbolic_x(1.0), abs=1e-9)

    def test_time_validation(self):
        fld = radial_field()
        for times in ([], [0.5, 0.4], [-0.1]):
            with pytest.raises(DomainError):
                evolve_at(fld, 0.0, times, 0j)


class TestRk4Oracle:
    def test_radial_against_closed_form(self):
        w = rk4_oracle(radial_field(), 0.0, 1.0, 0.5 + 0j, 10000)
        assert w == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)

    def test_convergence_ordering(self):
        fld = corollary_delta(PI / 2)
        w1 = rk4_oracle(fld, 0.0, 1.0, 0.9 + 0j, 1)
        w2 = rk4_oracle(fld, 0.0, 1.0, 0.9 + 0j, 2)
        w_ref = rk4_oracle(fld, 0.0, 1.0, 0.9 + 0j, 4096)
        assert abs(w1 - w_ref) > abs(w2 - w_ref) > 0.0

    def test_cross_validates_adaptive(self):
        fld = corollary_delta(PI / 2)
        a = evolve(fld, 0.0, 1.0, 0j)
        o = rk4_oracle(fld, 0.0, 1.0, 0j, 100000)
        assert abs(a - o) < 1e-9

    def test_segment_breakpoints_inserted(self):
        fld = two_segment_field()
        # with a tiny uniform grid the breakpoint at t=1 must still be hit
        w = rk4_oracle(fld, 0.0, 2.0, 0.2 + 0.1j, 3)
        x = evolve(fld, 0.0, 2.0, 0.2 + 0.1j)
        assert abs(w - x) < 5e-3

    def test_failure_when_leaving_disk(self):
        with pytest.raises(IntegrationError):
            rk4_oracle(OutwardField(), 0.0, 2.0, 0.5 + 0j, 100)
        # the guard runs after every step: it stops at the first grid time
        # outside the disk, although the orbit is back inside at the end
        grid = np.linspace(0.0, 2 * PI, 1001)
        exact = 0.6 - 0.5 * np.exp(1j * grid)
        k = int(np.argmax(np.abs(exact) >= 1.0))
        assert abs(exact[-1]) < 1.0
        assert min(abs(exact[k]) - 1.0, 1.0 - abs(exact[k - 1])) > 1e-6
        with pytest.raises(IntegrationError) as info:
            rk4_oracle(ExcursionField(), 0.0, 2 * PI, 0.1 + 0j, 1000)
        assert info.value.t == grid[k]
        assert abs(info.value.w) >= 1.0
        assert info.value.w == pytest.approx(exact[k], abs=1e-10)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            rk4_oracle(radial_field(), 0.0, 1.0, 0j, 0)


class TestAutonomousSemiflow:
    """A time-constant field generates a semiflow phi_t = phi_{0,t}."""

    def test_radial_value(self):
        w = evolve(radial_field(), 0.0, math.log(2.0), 0.8 + 0j)
        assert w == pytest.approx(0.4, abs=1e-10)

    def test_semigroup_law(self):
        fld = corollary_delta(PI, t_end=1.0, hold_last=True)
        z = 0.1j
        one_step = evolve(fld, 0.0, 1.0, z)
        two_step = evolve(fld, 0.0, 0.3, evolve(fld, 0.0, 0.7, z))
        assert abs(one_step - two_step) < 1e-9

    def test_denjoy_wolff_iteration(self):
        fld = example_three_atoms()
        z = 0.5 + 0j
        for _ in range(20):
            z = evolve(fld, 0.0, 1.0, z)
        assert abs(z) < 1e-3


class TestFailureHandling:
    def test_boundary_guard_fails_loudly(self):
        with pytest.raises(IntegrationError) as exc_info:
            evolve(OutwardField(), 0.0, 2.0, 0.5 + 0j)
        err = exc_info.value
        assert err.t is not None and err.w is not None
        assert 0.0 <= err.t < 2.0
        assert abs(err.w) < 1.0
        # G = 1 carries 0.5 onto the circle at t = 0.5: the guard rejects
        # every step from there, and the failure says so, not "underflow"
        message = str(err)
        assert "boundary guard" in message and "underflow" not in message
        assert "window [0.0, 2.0]" in message and "last h = " in message
        assert err.t == pytest.approx(0.5, abs=1e-9)

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            ToleranceSettings(min_step=1.0, max_step=0.1)
        with pytest.raises(ValidationError):
            ToleranceSettings(rel_tol=0.0)


class TestTrajectory:
    def test_recorded_samples(self):
        samples = []
        w = evolve(corollary_delta(PI, t_end=2.0), 0.0, 2.0, 0j, record=samples)
        ts = [t for t, _ in samples]
        assert ts[0] == 0.0 and ts[-1] == 2.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert samples[-1][1] == w
        # samples track the closed-form trajectory
        for t, w in samples:
            assert abs(w) < 1.0
            assert abs(w - hyperbolic_x(t)) < 1e-8

    def test_record_requires_scalar(self):
        with pytest.raises(DomainError):
            evolve(radial_field(), 0.0, 1.0, np.array([0j]), record=[])


class TestBoundaryFlow:
    def test_automorphism_angles(self):
        # boundary flow of the hyperbolic group matches the closed form
        fld = corollary_delta(PI)
        ref = hyperbolic_automorphism(1.0)
        for theta in (PI + 0.3, PI - 0.8, 4.0):
            out = evolve_on_circle(fld, 0.0, 1.0, theta)
            expected = np.angle(ref.apply(np.exp(1j * theta)))
            assert (out - expected) % (2 * PI) == pytest.approx(0.0, abs=1e-9) or (
                expected - out
            ) % (2 * PI) == pytest.approx(0.0, abs=1e-9)

    def test_not_tangent_raises(self):
        with pytest.raises(NotTangentError):
            evolve_on_circle(radial_field(), 0.0, 1.0, 1.0)

    def test_vector_angles(self):
        fld = corollary_delta(PI / 2)
        thetas = np.linspace(PI + 0.2, 2 * PI - 0.2, 33)
        out = evolve_on_circle(fld, 0.0, 1.0, thetas)
        assert out.shape == thetas.shape
        assert np.all(np.diff(out) > 0)  # boundary restriction stays injective
