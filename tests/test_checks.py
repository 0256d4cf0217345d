import ast
import cmath
import json
import math
from pathlib import Path

from loewner import BoundaryPoint, CorollaryField, PoleError, collect_stats
from loewner import _rk4, checks
from loewner.checks import (
    CHECK_NAMES,
    CHECKS,
    CheckContext,
    DEFAULT_TOLERANCES,
    emit_report,
    run_verify,
)
from loewner.config import parse_config
from bench_configs import BENCH_CONFIGS
from reference import herglotz_zero_angle

PI = math.pi

REGISTRY = [
    "semigroup", "disk_invariance", "schwarz_pick", "julia", "cowen_pommerenke",
    "dilation_tracking", "dilation_monotone", "chain_rule", "arc_lemma",
    "oracle_agreement", "half_plane_julia", "nevanlinna_beta",
]


def config_dict(field, checks, fixed_points=(), t1=1.0, skip=False, tolerances=None):
    d = {
        "field": field,
        "integration": {"t0": 0, "t1": t1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.2, 0.5, 0.8, 0.93], "angles": 16},
        "checks": list(checks),
        "fixed_points": list(fixed_points),
    }
    if skip:
        d["skip_field_validation"] = True
    if tolerances:
        d["tolerances"] = tolerances
    return d


def corollary_field_dict(weight=1.0, t1=1.0, angle=PI):
    return {"kind": "corollary", "schedule": {"segments": [
        {"t0": 0, "t1": t1, "measure": {
            "atoms": [{"angle": angle, "weight": weight}], "excluded_angle": 0.0}}]}}


BOTH_FPS = ({"angle": PI, "expected_role": "brfp"}, {"angle": 0.0, "expected_role": "dw"})


def run(d):
    return run_verify(parse_config(json.dumps(d).encode()))


class TestRegistry:
    def test_names(self):
        assert CHECK_NAMES == frozenset(REGISTRY)
        assert set(CHECKS) == set(DEFAULT_TOLERANCES)

    def test_every_check_appears_once_sorted(self):
        rep = run(config_dict(corollary_field_dict(), REGISTRY, BOTH_FPS))
        names = [c.name for c in rep.checks]
        assert names == sorted(REGISTRY)
        # the full suite passes on the canonical single-atom field
        assert rep.all_passed, [(c.name, c.max_residual, c.notes) for c in rep.checks]

    def test_pass_iff_residual_within_tolerance(self):
        rep = run(config_dict(corollary_field_dict(), REGISTRY, BOTH_FPS))
        for c in rep.checks:
            if c.max_residual is not None:
                assert c.passed == (c.max_residual <= c.tolerance_used)

    def test_tolerance_override_recorded(self):
        rep = run(config_dict(corollary_field_dict(), ["semigroup"], BOTH_FPS,
                              tolerances={"semigroup": 1e-15}))
        (c,) = rep.checks
        assert c.tolerance_used == 1e-15
        assert not c.passed  # integration noise exceeds an absurd tolerance


class TestOutcomeRules:
    def test_each_exit_of_the_registration(self, monkeypatch):
        # pass and fail by residual
        for tol, passed in ((1.0, True), (1e-300, False)):
            (c,) = run(config_dict(corollary_field_dict(), ["semigroup"],
                                   tolerances={"semigroup": tol})).checks
            assert (c.passed, c.tolerance_used) == (passed, tol)
            assert 0.0 < c.max_residual < 1.0 and c.worst_input is not None
        # a residual the body could not form fails with the check's own note
        d = config_dict(corollary_field_dict(), ["julia"],
                        [{"angle": 1.0, "expected_role": "brfp"}], skip=True)
        (c,) = run(d).checks
        assert c.to_dict() == {
            "name": "julia", "pass": False, "max_residual": None, "tolerance_used": 1e-8,
            "worst_input": None, "notes": "no finite expected dilation at angle 1.0"}
        # a premise that does not hold
        (c,) = run(config_dict(corollary_field_dict(), ["julia"])).checks
        assert c.to_dict() == {
            "name": "julia", "pass": True, "max_residual": 0.0, "tolerance_used": 1e-8,
            "worst_input": None, "notes": "not applicable: no prescribed fixed points"}
        # a LoewnerError while evaluating
        def pole(z):
            raise PoleError("evaluation point sits on a pole of the kernel")

        monkeypatch.setattr(CorollaryField, "frozen_at", lambda self, t: pole)
        (c,) = run(config_dict(corollary_field_dict(), ["schwarz_pick"])).checks
        assert c.to_dict() == {
            "name": "schwarz_pick", "pass": False, "max_residual": None,
            "tolerance_used": 1e-10, "worst_input": None,
            "notes": "failed to evaluate: evaluation point sits on a pole of the kernel"}

    def test_only_the_registration_builds_outcomes(self):
        def builders(node, owner=None):
            """The innermost function around each CheckOutcome(...) call."""
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from builders(child, child.name)
                    continue
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "CheckOutcome"):
                    yield owner
                yield from builders(child, owner)

        tree = ast.parse(Path(checks.__file__).read_text())
        assert set(builders(tree)) == {"run"}


class TestReportDeterminism:
    def test_byte_identical_reports(self):
        d = config_dict(corollary_field_dict(), ["semigroup", "julia", "arc_lemma"], BOTH_FPS)
        assert emit_report(run(d)) == emit_report(run(d))

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        d = config_dict(corollary_field_dict(), ["semigroup", "julia", "schwarz_pick"], BOTH_FPS)
        serial = emit_report(run(d))
        monkeypatch.setenv("LOEWNER_THREADS", "4")
        assert emit_report(run(d)) == serial

    def test_check_order_does_not_change_results(self):
        # the dilation checks share one lazily built table: whichever check
        # runs first, every check reads the same values
        names = ["chain_rule", "cowen_pommerenke", "dilation_monotone",
                 "dilation_tracking", "disk_invariance", "julia"]
        d = config_dict(corollary_field_dict(), names, BOTH_FPS, t1=0.5)
        forward = json.loads(emit_report(run(d)))["checks"]
        d["checks"] = names[::-1]
        assert json.loads(emit_report(run(d)))["checks"] == forward
        config = parse_config(json.dumps(d).encode())
        for order in (names, names[::-1]):
            ctx = CheckContext(config)
            outcomes = {n: CHECKS[n](ctx).to_dict() for n in order}
            assert [outcomes[n] for n in names] == forward
        alone = [run(config_dict(corollary_field_dict(), [n], BOTH_FPS, t1=0.5)).checks[0]
                 for n in names]
        assert [c.to_dict() for c in alone] == forward

    def test_canonical_json_shape(self):
        rep = run(config_dict(corollary_field_dict(), ["semigroup"], BOTH_FPS))
        payload = json.loads(emit_report(rep))
        assert sorted(payload) == ["checks", "config_digest", "versions"]
        assert payload["checks"][0]["pass"] is True
        assert isinstance(payload["checks"][0]["max_residual"], float)


class TestNegativeControl:
    def test_corrupted_weight_fails_julia_with_positive_residual(self):
        d = config_dict(corollary_field_dict(weight=1.5),
                        ["julia", "schwarz_pick", "dilation_tracking"],
                        BOTH_FPS, skip=True)
        rep = run(d)
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["julia"].passed
        assert by_name["julia"].max_residual > 0.0
        assert not by_name["dilation_tracking"].passed
        # the corrupted field is still an honest self-map, so contraction holds
        assert by_name["schwarz_pick"].passed
        assert not rep.all_passed


class TestIndividualChecks:
    def test_full_suite_on_two_segment_schedule(self):
        field = {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {"atoms": [{"angle": PI, "weight": 1.0}],
                                           "excluded_angle": 0.0}},
            {"t0": 1, "t1": 2, "measure": {"atoms": [{"angle": PI / 2, "weight": 1.0}],
                                           "excluded_angle": 0.0}}]}}
        rep = run(config_dict(field, ["semigroup", "dilation_tracking", "chain_rule",
                                      "cowen_pommerenke", "disk_invariance"],
                              BOTH_FPS, t1=2.0))
        assert rep.all_passed, [(c.name, c.max_residual) for c in rep.checks]

    def test_checks_without_fixed_points_are_not_applicable(self):
        field = {"kind": "berkson_porta", "tau": {"re": 0.0, "im": 0.0},
                 "p": {"const_re": 1.0, "const_im": 0.0}}
        rep = run(config_dict(field, ["julia", "cowen_pommerenke", "chain_rule"]))
        for c in rep.checks:
            assert c.passed
            assert "not applicable" in c.notes

    def test_arc_lemma_not_applicable_for_radial_field(self):
        field = {"kind": "berkson_porta", "tau": {"re": 0.0, "im": 0.0},
                 "p": {"const_re": 1.0, "const_im": 0.0}}
        rep = run(config_dict(field, ["arc_lemma"]))
        (c,) = rep.checks
        assert c.passed and "not applicable" in c.notes

    def test_reciprocal_field_suite(self):
        field = {"kind": "reciprocal", "tau": {"re": 0.0, "im": 0.0},
                 "data": [{"angle": 2 * PI * k / 3, "alpha": 1.0} for k in range(3)]}
        fps = [{"angle": 0.0, "expected_role": "brfp"},
               {"angle": 2 * PI / 3, "expected_role": "brfp"}]
        rep = run(config_dict(field, ["julia", "dilation_tracking", "cowen_pommerenke",
                                      "dilation_monotone", "semigroup"], fps))
        assert rep.all_passed, [(c.name, c.max_residual, c.notes) for c in rep.checks]


def two_atom_corollary_dict(weight_pi=0.6, t1=1.0):
    """A corollary field whose flow is not an automorphism: phi'(1) = exp(-weight_pi t)."""
    return {"kind": "corollary", "schedule": {"segments": [
        {"t0": 0, "t1": t1, "measure": {
            "atoms": [{"angle": PI, "weight": weight_pi},
                      {"angle": PI / 2, "weight": 1.0 - weight_pi}],
            "excluded_angle": 0.0}}]}}


PARABOLIC = {"kind": "berkson_porta", "tau": {"angle": 0.0}, "p": {"const_re": 1.0}}
RADIAL = {"kind": "berkson_porta", "tau": {"re": 0.0, "im": 0.0}, "p": {"const_re": 1.0}}
TAU_CHECKS = ["half_plane_julia", "nevanlinna_beta"]


class TestJuliaWolffAtTau:
    def test_dilation_below_one(self):
        rep = run(config_dict(two_atom_corollary_dict(), TAU_CHECKS, BOTH_FPS))
        julia, beta = rep.checks
        assert rep.all_passed, [(c.name, c.max_residual, c.notes) for c in rep.checks]
        assert beta.worst_input["expected"] == math.exp(-0.6)
        assert abs(beta.worst_input["measured"] - math.exp(-0.6)) <= 1e-8
        assert julia.max_residual < -1e-3  # strict: the flow is no automorphism

    def test_dilation_one_with_tau_not_listed(self):
        config = parse_config(json.dumps(config_dict(PARABOLIC, TAU_CHECKS)).encode())
        ctx = CheckContext(config)
        julia, beta = (CHECKS[n](ctx) for n in TAU_CHECKS)
        assert julia.passed and beta.passed, (julia, beta)
        assert beta.worst_input["expected"] == 1.0
        assert abs(beta.worst_input["measured"] - 1.0) <= 1e-8
        # in the half-plane the parabolic flow is w -> w + 2it, so the
        # margin 1 - Im Phi(w) / Im w is -2t / Im w, largest at Im w = 2
        assert abs(julia.max_residual + 1.0) <= 1e-8
        assert {angle for _, _, angle in ctx._dilation_table} == {0.0}

    def test_hyperbolic_equality_case_passes(self):
        rep = run(config_dict(corollary_field_dict(), TAU_CHECKS, BOTH_FPS))
        julia, beta = rep.checks
        assert rep.all_passed
        assert abs(julia.max_residual) <= 1e-8  # Julia's inequality is an equality

    def test_wrong_expectation_fails(self, monkeypatch):
        exact = CorollaryField.expected_dilation
        monkeypatch.setattr(CorollaryField, "expected_dilation",
                            lambda self, point, s, t: 1.01 * exact(self, point, s, t))
        (beta,) = run(config_dict(two_atom_corollary_dict(), ["nevanlinna_beta"],
                                  BOTH_FPS)).checks
        assert not beta.passed and beta.max_residual > 5e-3

    def test_dilation_above_one_fails_even_when_expected(self, monkeypatch):
        exact, measured = CorollaryField.expected_dilation, CheckContext.measured_dilation
        monkeypatch.setattr(CorollaryField, "expected_dilation",
                            lambda self, point, s, t: 2.0 * exact(self, point, s, t))
        monkeypatch.setattr(CheckContext, "measured_dilation",
                            lambda self, s, t, point: 2.0 * measured(self, s, t, point))
        (beta,) = run(config_dict(two_atom_corollary_dict(), ["nevanlinna_beta"],
                                  BOTH_FPS)).checks
        assert not beta.passed
        assert abs(beta.max_residual - (2.0 * math.exp(-0.6) - 1.0)) <= 1e-8

    def test_too_small_dilation_fails(self, monkeypatch):
        measured = CheckContext.measured_dilation
        monkeypatch.setattr(CheckContext, "measured_dilation",
                            lambda self, s, t, point: 0.9 * measured(self, s, t, point))
        (julia,) = run(config_dict(corollary_field_dict(), ["half_plane_julia"],
                                   BOTH_FPS)).checks
        assert not julia.passed and julia.max_residual > 0.05

    def test_interior_tau_is_not_applicable(self):
        for c in run(config_dict(RADIAL, TAU_CHECKS)).checks:
            assert c.to_dict() == {
                "name": c.name, "pass": True, "max_residual": 0.0,
                "tolerance_used": DEFAULT_TOLERANCES[c.name], "worst_input": None,
                "notes": "not applicable: Denjoy-Wolff point inside the disk"}


#: (angle, alpha) atoms of a reciprocal field with a hyperbolic tau
HYPERBOLIC_ATOMS = ((0.7, 0.5), (2.4, 1.5), (4.4, 0.6))
#: the zero of h between the first two atoms
HYPERBOLIC_TAU = herglotz_zero_angle(HYPERBOLIC_ATOMS, 0.7, 2.4)


def hyperbolic_config(tau_angle, checks):
    """The reciprocal field of HYPERBOLIC_ATOMS with tau at ``tau_angle``,
    every sigma and tau listed."""
    field = {"kind": "reciprocal", "tau": {"angle": tau_angle},
             "data": [{"angle": a, "alpha": w} for a, w in HYPERBOLIC_ATOMS]}
    fps = [{"angle": a, "expected_role": "brfp"} for a, _ in HYPERBOLIC_ATOMS]
    return config_dict(field, checks, fps + [{"angle": tau_angle, "expected_role": "dw"}])


class TestHyperbolicTau:
    """tau of a reciprocal field at a zero of h: p = 1/h has a pole there,
    so tau is hyperbolic and G'(tau) = conj(tau)/h'(tau) < 0."""

    def test_all_checks_pass(self):
        rep = run(hyperbolic_config(HYPERBOLIC_TAU, REGISTRY))
        by_name = {c.name: c for c in rep.checks}
        assert rep.all_passed, [(c.name, c.max_residual, c.notes) for c in rep.checks]
        # a pole of G, another zero of h, lies on the arc
        assert by_name["arc_lemma"].notes.startswith("not applicable")
        beta = by_name["nevanlinna_beta"]
        # the data-implied dilation is exp(G'(tau)) at t = 1, not the parabolic 1
        assert abs(beta.worst_input["expected"] - 0.8700588914) <= 1e-10
        assert beta.max_residual <= 1e-9

    def test_a_tau_just_off_the_zero_is_parabolic(self):
        # 1e-7 off the zero of h, p is bounded at tau and G'(tau) = 0, but the
        # finest radius 1 - 2^-20 does not resolve the pole 1e-7 away: the
        # measured dilation reads the hyperbolic one
        theta = HYPERBOLIC_TAU + 1e-7
        config = parse_config(json.dumps(hyperbolic_config(theta, ["nevanlinna_beta"])).encode())
        assert config.field.kernel_data(0.0).derivative_at(BoundaryPoint(theta)) == 0
        (beta,) = run_verify(config).checks
        assert not beta.passed
        assert beta.worst_input["expected"] == 1.0
        assert abs(beta.worst_input["measured"] - 0.8700603874) <= 1e-8


class TestDilationTable:
    def test_a_listed_dw_reads_as_tau(self):
        # the dw is listed 1e-10 off tau = 1 and is measured at tau itself
        d = config_dict(corollary_field_dict(), ["dilation_monotone"], [
            {"angle": PI, "expected_role": "brfp"}, {"angle": 1e-10, "expected_role": "dw"}])
        ctx = CheckContext(parse_config(json.dumps(d).encode()))
        monotone = CHECKS["dilation_monotone"](ctx)
        assert sorted({angle for _, _, angle in ctx._dilation_table}) == [0.0, PI]
        assert monotone.passed and monotone.worst_input["angle"] == 0.0

    def test_tau_is_swept_once_when_listed_by_an_angle_off_its_phase(self):
        # tau = cos a + i sin a, whose phase reads back one ulp below a
        a = 3.5449381747978737
        assert BoundaryPoint(a).value == cmath.rect(1.0, a)
        assert BoundaryPoint.from_complex(cmath.rect(1.0, a)).angle == 3.544938174797873
        field = {"kind": "reciprocal", "tau": {"angle": a},
                 "data": [{"angle": 0.5, "alpha": 1.0}]}
        d = config_dict(field, ["chain_rule"], [
            {"angle": 0.5, "expected_role": "brfp"}, {"angle": a, "expected_role": "dw"}])
        ctx = CheckContext(parse_config(json.dumps(d).encode()))
        assert sorted({angle for _, _, angle in ctx._dilation_table}) == [
            0.5, 3.544938174797873]


#: field evaluations of each check on the seed-1 verify configs, counted by
#: the SolverStats sink with the checks run in name order on one
#: CheckContext: chain_rule, the first to read the dilation table, fills it
STEP_BUDGETS = {
    "verify_dilation": {
        "arc_lemma": 404, "chain_rule": 2520, "cowen_pommerenke": 0,
        "dilation_monotone": 0, "dilation_tracking": 0, "disk_invariance": 536,
        "half_plane_julia": 331, "julia": 643, "nevanlinna_beta": 0,
        "schwarz_pick": 1538, "semigroup": 2077,
    },
    "verify_oracle": {
        "arc_lemma": 424, "chain_rule": 702, "cowen_pommerenke": 0,
        "dilation_monotone": 0, "dilation_tracking": 0, "disk_invariance": 1118,
        "half_plane_julia": 662, "julia": 1166, "nevanlinna_beta": 0,
        "oracle_agreement": 400740, "schwarz_pick": 2218, "semigroup": 4360,
    },
}


def test_step_budgets_of_the_bench_configs():
    """Also: where the compiled windows load, arc_lemma's boundary flow,
    its last window, runs compiled."""
    spent, arc_backends = {}, {}
    for workload in sorted(STEP_BUDGETS):
        config = parse_config(json.dumps(BENCH_CONFIGS[workload, 1]).encode())
        ctx = CheckContext(config)
        spent[workload] = {}
        for name in sorted(config.checks):
            with collect_stats() as sink:
                CHECKS[name](ctx)
            spent[workload][name] = sink.stats.fevals
            if name == "arc_lemma":
                arc_backends[workload] = sink.stats.dp_backend
    assert spent == STEP_BUDGETS
    backend = "c" if _rk4.load()[0] is not None else "numpy"
    assert arc_backends == dict.fromkeys(STEP_BUDGETS, backend)


def test_every_check_reads_the_configured_flow():
    """A check that applies on both seed-1 verify configs must not read the
    same on both: equal entries mean the check ignores the config."""
    configs = [BENCH_CONFIGS[w, 1] for w in ("verify_oracle", "verify_dilation")]
    names = sorted(set(configs[0]["checks"]) & set(configs[1]["checks"]))
    entries = [{c.name: c.to_dict() for c in run(dict(d, checks=names)).checks}
               for d in configs]
    blind = [n for n in names
             if not any(e[n]["notes"].startswith("not applicable") for e in entries)
             and all((e[n]["max_residual"], e[n]["worst_input"])
                     == (entries[0][n]["max_residual"], entries[0][n]["worst_input"])
                     for e in entries)]
    assert blind == []
