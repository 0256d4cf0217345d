"""Acceptance suite: each test runs one numbered criterion at its stated
tolerance and prints a single pass/fail line (run pytest with -s to see
them)."""

import json
import math
import subprocess
import sys

import numpy as np

from loewner import (
    BoundaryPoint,
    angular_derivative,
    check_arc_length,
    check_julia,
    dilation_curve,
    evolution_map,
    evolve,
    rk4_oracle,
)
from loewner.grids import disk_grid_100, upper_half_plane_grid
from conftest import (
    corollary_delta,
    example_three_atoms,
    hyperbolic_automorphism,
    hyperbolic_x,
    parabolic_field,
    radial_field,
    two_segment_field,
)
from reference import (
    RealAtomicMeasure,
    build_automorphism,
    build_three_brfp_map,
    check_half_plane_julia,
    disk_grid_64,
)

PI = math.pi
ONE = BoundaryPoint(0.0)
MINUS_ONE = BoundaryPoint(PI)
TARGETS = (BoundaryPoint(PI / 2), BoundaryPoint(3 * PI / 2), BoundaryPoint(0.0))


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def acceptance_fields():
    return [
        ("radial", radial_field(), 1.0),
        ("parabolic", parabolic_field(), 1.0),
        ("three-atoms", example_three_atoms(), 1.0),
        ("cor-delta-minus1", corollary_delta(PI, t_end=2.0), 1.0),
        ("cor-delta-i", corollary_delta(PI / 2, t_end=2.0), 1.0),
        ("two-segment", two_segment_field(), 2.0),
    ]


def measured_dilation(fld, s, t, point):
    est = angular_derivative(evolution_map(fld, s, t), point, point)
    assert not est.diverged, f"dilation diverged at angle {point.angle}"
    return est.value


def test_criterion_01_hyperbolic_group_oracle():
    fld = corollary_delta(PI, t_end=5.0)
    grid = disk_grid_64()
    worst = 0.0
    for t in (0.5, 1.0, 2.5, 5.0):
        x = hyperbolic_x(t)
        closed = (grid + x) / (1.0 + x * grid)
        worst = max(worst, float(np.max(np.abs(evolve(fld, 0.0, t, grid) - closed))))
    report(1, "hyperbolic-group oracle over [0,5]", worst <= 1e-8,
           f"sup error {worst:.3e} <= 1e-08")


def test_criterion_02_dilation_tracking():
    worst = 0.0
    fld_i = corollary_delta(PI / 2, t_end=2.0)
    ts = [0.25, 0.5, 1.0, 2.0]
    for (t, v) in dilation_curve(fld_i, MINUS_ONE, ts):
        worst = max(worst, abs(v - math.exp(t)) / math.exp(t))
    for (t, v) in dilation_curve(fld_i, ONE, ts):
        worst = max(worst, abs(v - 1.0))
    fld_m1 = corollary_delta(PI, t_end=2.0)
    for (t, v) in dilation_curve(fld_m1, ONE, ts):
        worst = max(worst, abs(v - math.exp(-t)) / math.exp(-t))
    report(2, "dilation tracking (e^t, 1, e^-t)", worst <= 1e-3,
           f"max relative error {worst:.3e} <= 1e-03")


def test_criterion_03_evolution_family_laws():
    grid = disk_grid_64()
    worst = 0.0
    strict = True
    for name, fld, t1 in acceptance_fields():
        ident = evolution_map(fld, 0.3, 0.3)(grid)
        assert np.array_equal(ident, grid), f"EF1 not exact for {name}"
        direct = evolve(fld, 0.0, t1, grid)
        for frac in (0.25, 0.5, 0.75):
            u = frac * t1
            through = evolve(fld, u, t1, evolve(fld, 0.0, u, grid))
            worst = max(worst, float(np.max(np.abs(direct - through))))
            strict &= bool(np.max(np.abs(through)) < 1.0)
        strict &= bool(np.max(np.abs(direct)) < 1.0)
    report(3, "EF1 exact / EF2 residual / disk invariance",
           worst <= 1e-8 and strict,
           f"max EF2 residual {worst:.3e} <= 1e-08, strict invariance {strict}")


def test_criterion_04_julia_inequality():
    grid = disk_grid_100()
    worst = -math.inf
    cases = []
    for name, fld, t1 in acceptance_fields():
        if name == "radial":
            continue  # no boundary fixed points prescribed
        if name == "parabolic":
            points = [ONE]
        elif name.startswith("cor") or name == "two-segment":
            points = [MINUS_ONE, ONE]
        else:
            points = [p for p, _ in fld.data]
        ev = evolution_map(fld, 0.0, t1)
        for p in points:
            d = measured_dilation(fld, 0.0, t1, p)
            violation, _ = check_julia(ev, p, p, d * (1.0 + 1e-6), grid)
            worst = max(worst, violation)
            cases.append(name)
    m = build_three_brfp_map(-1.0, 1.0,
                             RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS)
    for p, d in ((m.tau, m.tau_dilation), (m.sigma1, m.sigma1_dilation),
                 (m.sigma2, m.sigma2_dilation)):
        est = angular_derivative(m, p, p)
        violation, _ = check_julia(m, p, p, est.value * (1.0 + 1e-6), grid)
        worst = max(worst, violation)

    # automorphism instances attain equality: exact prescribed dilations
    eq_worst = 0.0
    auto = build_automorphism(MINUS_ONE, ONE, dilation_at_fix1=math.e)
    for p, a in ((MINUS_ONE, math.e), (ONE, 1.0 / math.e)):
        zs = grid
        ws = auto.apply(zs)
        lhs = np.abs(p.value - ws) ** 2 / (1.0 - np.abs(ws) ** 2)
        rhs = np.abs(p.value - zs) ** 2 / (1.0 - np.abs(zs) ** 2)
        eq_worst = max(eq_worst, float(np.max(np.abs(lhs - a * rhs))))
    ok = worst <= 1e-8 and eq_worst <= 1e-10
    report(4, "Julia inequality at prescribed fixed points", ok,
           f"max violation {worst:.3e} <= 1e-08, automorphism equality "
           f"defect {eq_worst:.3e} <= 1e-10")


def test_criterion_05_cowen_pommerenke_products():
    worst_low = math.inf   # all products must clear 1 - 1e-6
    auto_defect = 0.0
    for name, fld, t1 in acceptance_fields():
        if name.startswith("cor") or name == "two-segment":
            pairs = [(MINUS_ONE, ONE)]
        elif name == "three-atoms":
            pts = [p for p, _ in fld.data]
            pairs = [(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3)]
        else:
            continue
        for a, b in pairs:
            prod = (measured_dilation(fld, 0.0, t1, a)
                    * measured_dilation(fld, 0.0, t1, b))
            worst_low = min(worst_low, prod)
            if name == "cor-delta-minus1":
                auto_defect = max(auto_defect, abs(prod - 1.0))
    auto = build_automorphism(MINUS_ONE, ONE, dilation_at_fix1=math.e)
    est1 = angular_derivative(auto.apply, MINUS_ONE, MINUS_ONE)
    est2 = angular_derivative(auto.apply, ONE, ONE)
    auto_defect = max(auto_defect, abs(est1.value * est2.value - 1.0))
    worst_low = min(worst_low, est1.value * est2.value)
    m = build_three_brfp_map(-1.0, 1.0,
                             RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS)
    margin = m.tau_dilation * m.sigma1_dilation - 1.0
    ok = worst_low >= 1.0 - 1e-6 and auto_defect <= 1e-6 and margin >= 0.01
    report(5, "Cowen-Pommerenke dilation products", ok,
           f"min product {worst_low:.9f} >= 1-1e-06, automorphism defect "
           f"{auto_defect:.3e} <= 1e-06, three-point margin {margin:.3f} >= 0.01")


def test_criterion_06_nevanlinna_beta_relation():
    worst_rel = 0.0
    worst_hp = -math.inf
    cap_ok = True
    grid32 = upper_half_plane_grid()
    for mass in (0.1, 1.0, 10.0):
        measure = RealAtomicMeasure(((0.0, mass),), (-1.0, 1.0), inside=True)
        m = build_three_brfp_map(-1.0, 1.0, measure, TARGETS)
        est = angular_derivative(m, m.tau, m.tau)
        expected = 1.0 / (1.0 + mass)
        worst_rel = max(worst_rel, abs(est.value - expected) / expected)
        cap_ok &= est.value <= 1.0 + 1e-9
        worst_hp = max(worst_hp, check_half_plane_julia(m.rep, grid32))
    ok = worst_rel <= 1e-4 and cap_ok and worst_hp <= 1e-12
    report(6, "Nevanlinna beta relation f'(tau) = 1/(1+mass)", ok,
           f"max relative error {worst_rel:.3e} <= 1e-04, f'(tau) <= 1: {cap_ok}, "
           f"half-plane violation {worst_hp:.3e} <= 1e-12")


def test_criterion_07_arc_lemma():
    m = build_three_brfp_map(-1.0, 1.0,
                             RealAtomicMeasure(((0.0, 1.0),), (-1.0, 1.0)), TARGETS)
    len_arc, len_image, note = check_arc_length(m, (3 * PI / 2 + 0.3, 5 * PI / 2 - 0.3))
    margin = len_image - len_arc
    auto = hyperbolic_automorphism(1.0)
    auto_arc, auto_image, auto_note = check_arc_length(auto.apply, (PI / 2, 3 * PI / 2))
    eq_defect = abs(auto_image - auto_arc)
    ok = note == "" and margin > 1e-3 and auto_note == "" and eq_defect <= 1e-8
    report(7, "boundary arc-length comparison", ok,
           f"strict margin {margin:.4f} > 1e-03, automorphism equality defect "
           f"{eq_defect:.3e} <= 1e-08")


def test_criterion_08_oracle_agreement():
    worst = 0.0
    grid = disk_grid_64()[::4][:16]
    for name, fld, t1 in acceptance_fields():
        adaptive = evolve(fld, 0.0, t1, grid)
        fixed = rk4_oracle(fld, 0.0, t1, grid, 100000)
        worst = max(worst, float(np.max(np.abs(adaptive - fixed))))
    report(8, "adaptive vs fixed-step oracle", worst <= 1e-8,
           f"max disagreement {worst:.3e} <= 1e-08 on 16 grid points")


def test_criterion_09_monotonicity_and_chain_rule():
    ts = np.linspace(0.0, 2.0, 21)
    slack = 1e-6  # measurement noise allowance on flat curves
    mono_ok = True
    range_ok = True
    fields = [
        ("parabolic", parabolic_field(), [], [ONE]),
        ("three-atoms", example_three_atoms(), [p for p, _ in example_three_atoms().data], []),
        ("cor-delta-minus1", corollary_delta(PI, t_end=2.0), [MINUS_ONE], [ONE]),
        ("cor-delta-i", corollary_delta(PI / 2, t_end=2.0), [MINUS_ONE], [ONE]),
        ("two-segment", two_segment_field(), [MINUS_ONE], [ONE]),
    ]
    for name, fld, brfps, dws in fields:
        for p in brfps:
            vals = [measured_dilation(fld, 0.0, float(t), p) if t > 0 else 1.0
                    for t in ts]
            mono_ok &= all(b >= a - slack * max(a, 1.0) for a, b in zip(vals, vals[1:]))
        for p in dws:
            vals = [measured_dilation(fld, 0.0, float(t), p) if t > 0 else 1.0
                    for t in ts]
            mono_ok &= all(b <= a + slack * max(a, 1.0) for a, b in zip(vals, vals[1:]))
            range_ok &= all(0.0 < v <= 1.0 + slack for v in vals)
    # interior DW point of the three-atom flow: |phi'(0)| non-increasing
    fld = example_three_atoms()
    h = 1e-5
    mods = []
    for t in ts:
        w = (evolve(fld, 0.0, float(t), np.array([h + 0j, -h + 0j]))
             if t > 0 else np.array([h + 0j, -h + 0j]))
        mods.append(abs((w[0] - w[1]) / (2 * h)))
    mono_ok &= all(b <= a + slack for a, b in zip(mods, mods[1:]))

    chain_worst = 0.0
    for name, fld, brfps, dws in fields:
        for p in brfps + dws:
            full = measured_dilation(fld, 0.0, 1.0, p)
            split = (measured_dilation(fld, 0.0, 0.5, p)
                     * measured_dilation(fld, 0.5, 1.0, p))
            chain_worst = max(chain_worst, abs(full - split) / full)
    ok = mono_ok and range_ok and chain_worst <= 1e-3
    report(9, "dilation monotonicity and chain rule", ok,
           f"monotone {mono_ok}, DW range {range_ok}, chain-rule residual "
           f"{chain_worst:.3e} <= 1e-03")


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "loewner.cli", *argv],
                          capture_output=True, timeout=600)


def test_criterion_10_cli_contract(tmp_path):
    from loewner.config import emit_config, parse_config

    base = {
        "field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {
                "atoms": [{"angle": PI, "weight": 1.0}], "excluded_angle": 0.0}}]}},
        "integration": {"t0": 0, "t1": 1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6], "angles": 4},
        "checks": ["semigroup", "julia", "dilation_tracking", "arc_lemma"],
        "fixed_points": [{"angle": PI, "expected_role": "brfp"},
                         {"angle": 0.0, "expected_role": "dw"}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base))

    # config round trip is the identity on semantic content
    cfg = parse_config(cfg_path.read_bytes())
    round_trip_ok = parse_config(emit_config(cfg)) == cfg

    # verify: exit 0, byte-identical across runs
    r1 = run_cli("verify", "--config", str(cfg_path))
    r2 = run_cli("verify", "--config", str(cfg_path))
    verify_ok = r1.returncode == 0 and r1.stdout == r2.stdout and len(r1.stdout) > 0

    # simulate: deterministic CSV artifacts
    sim_cfg = dict(base, output={"trajectory_csv": str(tmp_path / "out")})
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps(sim_cfg))
    s1 = run_cli("simulate", "--config", str(sim_path))
    first = (tmp_path / "out" / "trajectory_z000.csv").read_bytes()
    s2 = run_cli("simulate", "--config", str(sim_path))
    simulate_ok = (s1.returncode == 0 and s2.returncode == 0
                   and (tmp_path / "out" / "trajectory_z000.csv").read_bytes() == first)

    # derivative subcommand works
    d1 = run_cli("derivative", "--config", str(cfg_path), "--sigma", str(PI),
                 "--times", "0.5,1")
    deriv_ok = d1.returncode == 0 and d1.stdout.startswith(b"t,dilation")

    # exit-code table: 2 for config errors, 1 for check failures
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{oops")
    code2_ok = run_cli("verify", "--config", str(bad_path)).returncode == 2

    neg = dict(base, skip_field_validation=True,
               checks=["julia", "schwarz_pick"])
    neg["field"] = {"kind": "corollary", "schedule": {"segments": [
        {"t0": 0, "t1": 1, "measure": {
            "atoms": [{"angle": PI, "weight": 1.5}], "excluded_angle": 0.0}}]}}
    neg_path = tmp_path / "neg.json"
    neg_path.write_text(json.dumps(neg))
    nr = run_cli("verify", "--config", str(neg_path))
    neg_payload = json.loads(nr.stdout)
    julia_entry = next(c for c in neg_payload["checks"] if c["name"] == "julia")
    neg_ok = (nr.returncode == 1 and julia_entry["pass"] is False
              and julia_entry["max_residual"] > 0.0)

    ok = all((round_trip_ok, verify_ok, simulate_ok, deriv_ok, code2_ok, neg_ok))
    report(10, "CLI contract", ok,
           f"round-trip {round_trip_ok}, deterministic verify {verify_ok}, "
           f"deterministic simulate {simulate_ok}, derivative {deriv_ok}, "
           f"exit codes {code2_ok}, negative control {neg_ok}")
