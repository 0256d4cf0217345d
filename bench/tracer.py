"""Span tracer for the loewner layers, installed from outside the program.

The program imports names directly (``checks`` and ``cli`` hold their own
references to ``evolve``, ``rk4_oracle``, ``angular_derivative``,
``dilation_curve`` and ``parse_config``, and ``boundary`` reaches
``integrate.evolve`` through ``evolution_map``), so each function is
wrapped in every module that holds it.  Field evaluations are counted by wrapping ``frozen_at`` on
the three field classes.  Spans stay in memory and are written once, at
the end.  A span's self time is its duration minus the time of its
children, field evaluations included.

Run as a child process from the checkout root, with ``src`` importable::

    python3 bench/tracer.py SPANS.json -- verify --config run.json --report r.json
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import astuple, dataclass
from time import perf_counter


#: (defining module, name, span label) of each wrapped layer function
LAYER_FUNCTIONS = (
    ("integrate", "evolve", "integrate.evolve"),
    ("integrate", "rk4_oracle", "integrate.rk4"),
    ("boundary", "angular_derivative", "boundary.angular_derivative"),
    ("boundary", "dilation_curve", "boundary.dilation_curve"),
    ("config", "parse_config", "config.parse"),
)


def _diverged(estimate) -> bool:
    return bool(getattr(estimate, "diverged", False))


@dataclass
class Span:
    name: str
    parent: int
    start: float
    fevals: int  # field evaluations inside the span (counter value until closed)
    windows: int  # frozen_at calls inside the span: one per integration window
    end: float = 0.0
    child_s: float = 0.0
    flag: bool = False  # a diverged angular-derivative estimate


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.fevals = 0
        self.feval_s = 0.0
        self.windows = 0
        self._undo: list = []

    def _patch(self, owner, key, value) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) until restore."""
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def wrap(self, name: str, fn, flag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, parent, 0.0, tracer.fevals, tracer.windows)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.end - span.start
                span.fevals = tracer.fevals - span.fevals
                span.windows = tracer.windows - span.windows
            if flag is not None:
                span.flag = bool(flag(result))
            return result

        return traced

    def _counting(self, frozen_at):
        tracer = self

        @functools.wraps(frozen_at)
        def counted_frozen_at(spec, t):
            g = frozen_at(spec, t)
            tracer.windows += 1

            def kernel(z):
                t0 = perf_counter()
                w = g(z)
                dt = perf_counter() - t0
                tracer.fevals += 1
                tracer.feval_s += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]].child_s += dt
                return w

            return kernel

        return counted_frozen_at

    def install(self) -> None:
        """Wrap the layer functions in every loewner module that holds
        them, the field classes' ``frozen_at`` and each registered check.
        A name the program no longer has is skipped; its metrics read 0."""
        import loewner.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "loewner" or n.startswith("loewner.")]
        for mod in modules:
            for cls in list(vars(mod).values()):
                if (isinstance(cls, type) and cls.__module__ == mod.__name__
                        and "frozen_at" in vars(cls)):
                    self._patch(cls, "frozen_at", self._counting(cls.frozen_at))
        for home, name, label in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(f"loewner.{home}"), name, None)
            if original is None:
                continue
            flag = _diverged if name == "angular_derivative" else None
            traced = self.wrap(label, original, flag)
            for mod in modules:
                if vars(mod).get(name) is original:
                    self._patch(mod, name, traced)
        checks = sys.modules.get("loewner.checks")
        for name, fn in list(getattr(checks, "CHECKS", {}).items()):
            self._patch(checks.CHECKS, name, self.wrap(f"checks.{name}", fn))

    def dump(self) -> dict:
        return {"fevals": self.fevals, "feval_s": self.feval_s,
                "spans": [astuple(s) for s in self.spans]}


def summarize(doc: dict, traced_wall: float) -> dict:
    """Per-layer numbers from a dumped trace; ``traced_wall`` is the wall
    time of the traced process."""
    spans = [Span(*row) for row in doc["spans"]]

    def of(name):
        return [s for s in spans if s.name == name]

    def dur(s):
        return s.end - s.start

    def self_s(items):
        return sum(dur(s) - s.child_s for s in items)

    evolves, rk4s, ads = of("integrate.evolve"), of("integrate.rk4"), of(
        "boundary.angular_derivative")
    out = {
        "generators.feval.calls": doc["fevals"],
        "generators.feval.self_s": doc["feval_s"],
        "integrate.rk4.calls": len(rk4s),
        "integrate.rk4.self_s": self_s(rk4s),
        "integrate.rk4.share": sum(map(dur, rk4s)) / traced_wall,
        "integrate.evolve.calls": len(evolves),
        "integrate.evolve.self_s": self_s(evolves),
        "integrate.fevals_per_evolve": sum(s.fevals for s in evolves) / max(1, len(evolves)),
        "integrate.evolve.fevals": sum(s.fevals for s in evolves),
        "integrate.evolve.windows": sum(s.windows for s in evolves),
        "boundary.angular_derivative.calls": len(ads),
        "boundary.angular_derivative.ms": 1e3 * sum(map(dur, ads)) / max(1, len(ads)),
        "boundary.angular_derivative.diverged": sum(s.flag for s in ads),
        "config.parse_s": sum(map(dur, of("config.parse"))),
        "cli.self_s": self_s(of("cli")),
    }
    for s in spans:
        if s.name.startswith("checks."):
            out[f"{s.name}.s"] = dur(s)
            out[f"{s.name}.fevals"] = s.fevals
    return out


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <loewner arguments>")
    from loewner import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli", cli.main)(cli_args)
    finally:
        tracer.restore()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
