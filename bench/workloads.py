"""Seeded inputs and output gates for the three benchmark workloads.

A seed moves atom angles and weights inside fixed margins.  It never
moves counts (segments, atoms, grid size, fixed points, time window), so
the work per run stays comparable across seeds.  The program receives
only the generated config file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PI = math.pi

#: the baseline below was recorded with this seed and with the held-out
#: seed 7; both give exit 0 with every check passing
DEFAULT_SEED = 1

ALL_CHECKS = (
    "arc_lemma", "chain_rule", "cowen_pommerenke", "dilation_monotone",
    "dilation_tracking", "disk_invariance", "half_plane_julia", "julia",
    "nevanlinna_beta", "oracle_agreement", "schwarz_pick", "semigroup",
)

T1 = 2.0
SIM_RADII = (0.2, 0.4, 0.6, 0.8)
SIM_ANGLES = 32
SIM_POINTS = len(SIM_RADII) * SIM_ANGLES


def _jitter(rng: random.Random, base: float, margin: float) -> float:
    return base + rng.uniform(-margin, margin)


def _measure(pairs, excluded=None) -> dict:
    return {"atoms": [{"angle": a, "weight": w} for a, w in pairs],
            "excluded_angle": excluded}


def verify_oracle_config(seed: int) -> dict:
    """Two-segment corollary field on a 3x16 polar grid, all 12 checks.

    Off-pi atoms stay in (0, pi): their kernel poles then sit on the upper
    semicircle, clear of the arc the arc-length check samples.
    """
    rng = random.Random(f"verify_oracle/{seed}")
    w0 = _jitter(rng, 0.7, 0.1)
    seg0 = _measure([(PI, w0), (_jitter(rng, 2.2, 0.2), 1.0 - w0)], 0.0)
    w1 = _jitter(rng, 0.6, 0.1)
    seg1 = _measure([(_jitter(rng, PI / 2, 0.2), w1),
                     (_jitter(rng, 1.0, 0.2), 1.0 - w1)], 0.0)
    return {
        "field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0.0, "t1": 1.0, "measure": seg0},
            {"t0": 1.0, "t1": T1, "measure": seg1}]}},
        "integration": {"t0": 0.0, "t1": T1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": list(ALL_CHECKS),
        "fixed_points": [{"angle": PI, "expected_role": "brfp"},
                         {"angle": 0.0, "expected_role": "dw"}],
    }


def verify_dilation_config(seed: int) -> dict:
    """Five-atom reciprocal field, tau on the circle, every sigma and tau
    listed as fixed points, the 11 checks other than oracle_agreement."""
    rng = random.Random(f"verify_dilation/{seed}")
    data = [{"angle": _jitter(rng, 2.0 * PI * (k + 0.5) / 5.0, 0.03),
             "alpha": _jitter(rng, 1.0, 0.05)} for k in range(5)]
    tau = 0.0
    fps = [{"angle": d["angle"], "expected_role": "brfp"} for d in data]
    fps.append({"angle": tau, "expected_role": "dw"})
    return {
        "field": {"kind": "reciprocal", "tau": {"angle": tau}, "data": data},
        "integration": {"t0": 0.0, "t1": T1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": [c for c in ALL_CHECKS if c != "oracle_agreement"],
        "fixed_points": fps,
    }


def simulate_grid_config(seed: int) -> dict:
    """Three-segment berkson_porta schedule with imag_const on a 4x32 grid."""
    rng = random.Random(f"simulate_grid/{seed}")
    cuts = (0.0, T1 / 3.0, 2.0 * T1 / 3.0, T1)
    segs = []
    for k in range(3):
        pairs = [(_jitter(rng, 2.0 * PI * (j + 0.25 + 0.3 * k) / 3.0, 0.05),
                  _jitter(rng, 0.5, 0.05)) for j in range(3)]
        segs.append({"t0": cuts[k], "t1": cuts[k + 1], "measure": _measure(pairs)})
    return {
        "field": {"kind": "berkson_porta", "tau": {"angle": PI},
                  "p": {"schedule": {"segments": segs},
                        "imag_const": _jitter(rng, 0.3, 0.03)}},
        "integration": {"t0": 0.0, "t1": T1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": list(SIM_RADII), "angles": SIM_ANGLES},
        "checks": [],
    }


CONFIGS = {
    "verify_oracle": verify_oracle_config,
    "verify_dilation": verify_dilation_config,
    "simulate_grid": simulate_grid_config,
}


#: checks that read "not applicable" on these configs at the commit the
#: benchmark was defined on; any other check turning not applicable is a
#: failure, so a check that silently stops running never reads as a speed-up
BASELINE_NOT_APPLICABLE = {
    "verify_oracle": frozenset(),
    "verify_dilation": frozenset({"arc_lemma"}),
}

#: fixed-step RK4 reference for the simulate gate: 2000 steps put the
#: oracle within ~5e-10 of the adaptive solver on these fields
SIM_ORACLE_STEPS = 2000
SIM_ORACLE_TOL = 1e-8
SIM_HEADER = "t,w_re,w_im"


def is_verify(workload: str) -> bool:
    return workload.startswith("verify_")


def gate_verify(workload: str, config: dict, returncode: int, report: Path):
    """Return (attempted, failed, not_applicable); one operation per check."""
    expected = set(config["checks"])
    attempted = len(expected)
    try:
        entries = {c["name"]: c for c in json.loads(report.read_bytes())["checks"]}
    except (OSError, ValueError, KeyError, TypeError):
        return attempted, attempted, 0
    failed = not_applicable = 0
    for name in expected:
        entry = entries.get(name)
        if entry is None:
            failed += 1
            continue
        notes = entry.get("notes", "")
        skipped = notes.startswith("not applicable")
        not_applicable += skipped
        if (returncode != 0 or entry.get("pass") is not True
                or notes.startswith("failed to evaluate")
                or (skipped and name not in BASELINE_NOT_APPLICABLE[workload])):
            failed += 1
    return attempted, failed, not_applicable


def simulate_reference(cfg) -> list[complex]:
    """Final points of the parsed config's grid from the program's
    fixed-step RK4 oracle."""
    from loewner.integrate import rk4_oracle

    finals = rk4_oracle(cfg.field, cfg.integration.t0, cfg.integration.t1,
                        cfg.grid.points(), SIM_ORACLE_STEPS)
    return [complex(w) for w in finals]


def gate_simulate(config: dict, returncode: int, out_dir: Path, reference):
    """Return (attempted, failed, csv_bytes, accepted_steps); one operation
    per trajectory.  Any file count other than one per grid point fails
    every trajectory.  Rows after the initial point are accepted steps."""
    t1 = config["integration"]["t1"]
    files = sorted(out_dir.glob("*.csv"))
    if returncode != 0 or len(files) != SIM_POINTS:
        return SIM_POINTS, SIM_POINTS, 0, 0
    failed = size = steps = 0
    for i, path in enumerate(files):
        data = path.read_bytes()
        size += len(data)
        lines = data.decode().splitlines()
        steps += len(lines) - 2
        ok = (path.name == f"trajectory_z{i:03d}.csv" and len(lines) >= 2
              and lines[0] == SIM_HEADER)
        if ok:
            try:
                t, re_, im_ = (float(v) for v in lines[-1].split(","))
            except ValueError:
                ok = False
            else:
                ok = t == t1 and abs(complex(re_, im_) - reference[i]) <= SIM_ORACLE_TOL
        failed += not ok
    return SIM_POINTS, failed, size, steps
