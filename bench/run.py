"""Benchmark of the loewner command line on three seeded workloads.

    python3 bench/run.py --workload verify_oracle --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the program is imported from
``src``.  ``--trace 0`` times untraced CLI children and reports the
end-to-end metrics; ``--trace 1`` adds one traced child and the layer
microbenchmarks and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Every output is checked outside the
timed region.  A human-readable summary line precedes the result, which
is the last line of standard output.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import micro
import tracer
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_SAMPLES = 7
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
MICRO_RESERVE_S = 5.0
SETUP_CODE = ("import sys, loewner.cli; from loewner.config import parse_config; "
              "parse_config(open(sys.argv[1], 'rb').read())")


class Child:
    """How one workload runs the CLI: command, environment, outputs, gate."""

    def __init__(self, workload: str, config: dict, work: Path, reference):
        self.workload, self.config, self.reference = workload, config, reference
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.out = work / ("report.json" if W.is_verify(workload) else "trajectories")
        self.stderr = work / "stderr.txt"
        self.env = dict(os.environ)
        self.env.pop("LOEWNER_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def cli_args(self) -> list[str]:
        if W.is_verify(self.workload):
            return ["verify", "--config", str(self.config_path), "--report", str(self.out)]
        return ["simulate", "--config", str(self.config_path), "--out", str(self.out)]

    def spawn(self, cmd: list[str]) -> tuple[float, int, float]:
        """Run cmd to completion; return (wall s, exit code, max RSS MB)."""
        with open(self.stderr, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup(self) -> float:
        return self.spawn([sys.executable, "-c", SETUP_CODE, str(self.config_path)])[0]

    def run(self, cmd_prefix: list[str]) -> tuple[float, float, tuple]:
        """Run the CLI once; return (wall s, max RSS MB, gate result)."""
        if self.out.is_dir():
            shutil.rmtree(self.out)
        self.out.unlink(missing_ok=True)
        wall, code, rss = self.spawn(cmd_prefix + self.cli_args())
        if W.is_verify(self.workload):
            gate = W.gate_verify(self.workload, self.config, code, self.out)
        else:
            gate = W.gate_simulate(self.config, code, self.out, self.reference)
        return wall, rss, gate


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    keep = len(xs) - 10
    out = {"n": len(xs), "median": statistics.median(xs),
           "samples": [round(v, 4) for v in values]}
    if keep >= 1:
        out[f"p{100.0 * keep / len(xs):g}"] = xs[keep - 1]
    return out


def sample_until(child: Child, deadline: float, min_samples: int,
                 estimate: float = 0.0, setups: list | None = None):
    """Untraced CLI samples, at least min_samples, then while the next one
    (as long as the median so far) still ends before deadline.  The set-up
    samples are spread over the first min_samples rounds, so slow spells
    hit both kinds of sample."""
    walls, rss, attempted, failed = [], [], 0, 0
    cli = [sys.executable, "-m", "loewner.cli"]
    while len(walls) < min_samples or deadline - perf_counter() >= (
            statistics.median(walls) if walls else estimate):
        if setups is not None:
            rounds_left = max(1, min_samples - len(walls))
            for _ in range(-(-(SETUP_SAMPLES - len(setups)) // rounds_left)):
                setups.append(child.setup())
        wall, mb, gate = child.run(cli)
        walls.append(wall)
        rss.append(mb)
        attempted += gate[0]
        failed += gate[1]
    return walls, rss, attempted, failed


def traced_run(child: Child, work: Path, untraced_median: float):
    spans_path = work / "spans.json"
    wall, _, gate = child.run([sys.executable, str(TRACER), str(spans_path), "--"])
    layers = tracer.summarize(json.loads(spans_path.read_text()), wall)
    layers["trace.overhead_s"] = wall - untraced_median
    for name in W.ALL_CHECKS:
        layers.setdefault(f"checks.{name}.s", 0.0)
        layers.setdefault(f"checks.{name}.fevals", 0)
    if W.is_verify(child.workload):
        layers["checks.not_applicable"] = gate[2]
        layers["cli.csv_bytes"] = 0
        layers["integrate.dp_accept_ratio"] = 0.0
    else:
        layers["checks.not_applicable"] = 0
        layers["cli.csv_bytes"] = gate[2]
        tried = (layers["integrate.evolve.fevals"] - layers["integrate.evolve.windows"]) / 6
        layers["integrate.dp_accept_ratio"] = gate[3] / tried if tried else 0.0
    return layers, gate


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "LOEWNER_THREADS": os.environ.get("LOEWNER_THREADS")}


def loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def measure(args, work: Path, spec: dict) -> dict:
    from loewner.config import parse_config

    t_start = perf_counter()
    deadline = t_start + args.seconds
    configs = {name: make(args.seed) for name, make in W.CONFIGS.items()}
    config = configs[args.workload]
    parsed = parse_config(json.dumps(config))
    reference = None if W.is_verify(args.workload) else W.simulate_reference(parsed)
    child = Child(args.workload, config, work, reference)
    child.setup()  # warm-up: byte-compile and fill the file cache, untimed
    summary = {"workload": args.workload, "seed": args.seed,
               "env": environment(), "loadavg_start": loadavg()}

    if not args.trace:
        setups: list[float] = []
        walls, rss, attempted, failed = sample_until(child, deadline, MIN_SAMPLES,
                                                     setups=setups)
        # the fastest child: other tenants' load only ever slows a child, and
        # on a shared VM it moves run medians by far more than the minimum
        metrics = {"wall_min_s": min(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss)}
        correct = failed == 0
        summary.update(wall_s=tail(walls), setup_s=tail(setups))
    else:
        # the traced child takes about one untraced sample plus tracing cost
        first = child.run([sys.executable, "-m", "loewner.cli"])
        reserve = 1.5 * first[0] + MICRO_RESERVE_S
        walls, _, attempted, failed = sample_until(child, deadline - reserve, 0,
                                                   estimate=first[0])
        walls.insert(0, first[0])
        attempted += first[2][0]
        failed += first[2][1]
        metrics, gate = traced_run(child, work, statistics.median(walls))
        attempted += gate[0]
        failed += gate[1]
        fields = {"corollary": configs["verify_oracle"],
                  "reciprocal": configs["verify_dilation"],
                  "berkson_porta": configs["simulate_grid"]}
        micro_metrics, curve_ok = micro.run_micro(
            {k: parse_config(json.dumps(c)).field for k, c in fields.items()})
        metrics.update(micro_metrics)
        correct = failed == 0 and curve_ok
        summary.update(wall_s=tail(walls), dilation_curve_ok=curve_ok)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    summary.update(loadavg_end=loadavg(), run_s=perf_counter() - t_start,
                   failed_ops_share=failed / attempted)
    print(json.dumps({"summary": summary}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.CONFIGS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "loewner" / "cli.py").is_file():
        print(f"bench: no loewner sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
