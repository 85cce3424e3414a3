"""Run one symquant CLI stage with a span around every call into a layer.

    python3 bench/trace_stage.py SPANS.json -- abstract --config c.ini --out m.sts

The arguments after ``--`` go to ``symquant.cli.main`` unchanged; the
process exits with the CLI's exit code.  Before the CLI runs, every layer
entry point is replaced by a wrapper that records a span (name, start, end,
parent span).  A function imported by name into another module is replaced
in that module too, so calls through every import site are seen.  Spans and
counters stay in memory and are written to SPANS.json when the stage ends.

``expr.evals`` is a count only: it is taken through the ``Expression.fn``
property, and timing each compiled-closure call would distort the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter_ns


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []       # [name id, start ns, end ns, parent span or -1]
        self.stack: list = []
        self.counters: dict = {}
        self.sites: dict = {}       # span name -> "module.attr" sites replaced
        self._evals = itertools.count()

    def wrap(self, name, fn, count=None):
        """fn with a span per call; count(tracer, args, result) adds counters."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def nested_in(self, name) -> bool:
        """True when the innermost open span is called `name`."""
        return bool(self.stack) and \
            self.names[self.spans[self.stack[-1]][0]] == name

    def dump(self, path):
        self.counters["expr.evals"] = next(self._evals)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, "sites": self.sites}, fh)


# -- counters taken from arguments and results at the layer boundaries ------

def _count_ids(tr, args, result):
    tr.add("quantizers.intersecting.ids", len(result))


def _count_model(tr, args, ts):
    # the last model built in a stage wins: it is the one the stage uses
    pairs = len(ts.states) * len(ts.inputs)
    tr.counters["abstraction.pairs"] = pairs
    tr.counters["abstraction.blocked_pairs"] = pairs - len(ts.transitions)
    tr.counters["abstraction.transitions"] = ts.n_transitions
    tr.counters["abstraction.truncated"] = int(bool(getattr(ts, "truncated", False)))


def _count_winning(tr, args, result):
    if tr.nested_in("synthesis"):
        return  # a leg of a sequence: the sequence call counts it
    if isinstance(result, tuple):          # synthesize_reach -> (ctrl, dist)
        tr.add("synthesis.winning_states", len(result[1]))
    else:                                  # synthesize_sequence -> ctrl
        tr.add("synthesis.winning_states", sum(len(w) for w in result.winning))


def _count_frr(tr, args, report):
    tr.add("frr.samples", report.samples)
    tr.add("frr.checked", report.checked)
    tr.add("frr.skipped", report.skipped)
    tr.add("frr.violations", len(report.violations))


def _count_steps(tr, args, result):
    tr.add("sim.steps", result[1].steps)


def _count_sts_in(tr, args, result):
    tr.add("model_io.sts_bytes", len(args[0]))


def _count_sts_out(tr, args, text):
    tr.add("model_io.sts_bytes", len(text))


def _targets():
    """(span name, owner, attribute, counter) for every traced entry point.

    Functions are replaced on their defining module and on every symquant
    module that imported them by name; methods are replaced on their class.
    """
    from symquant import (abstraction, cli, config, dynamics, frr, model_io,
                          quantizers, sim, synthesis)
    return [
        ("cli", cli, "main", None),
        ("config.load_config", config, "load_config", None),
        ("config.build_model", config.AppConfig, "build_model", None),
        ("abstraction.build", abstraction, "build_delayfree", _count_model),
        ("abstraction.build", abstraction, "build_timedelay", _count_model),
        ("abstraction.refine_cells", abstraction, "refine_cells", _count_model),
        ("dynamics.integrate", dynamics, "integrate", None),
        ("dynamics.integrate_delay", dynamics, "integrate_delay", None),
        ("dynamics.estimate_lipschitz", dynamics, "estimate_lipschitz", None),
        ("quantizers.locate", quantizers.Partition, "locate", None),
        ("quantizers.intersecting", quantizers.Partition, "intersecting", _count_ids),
        ("synthesis", synthesis, "synthesize_reach", _count_winning),
        ("synthesis", synthesis, "synthesize_sequence", _count_winning),
        ("frr", frr, "sample_frr_delayfree", _count_frr),
        ("frr", frr, "sample_frr_timedelay", _count_frr),
        ("sim", sim, "run_closed_loop", _count_steps),
        ("model_io.parse_sts", model_io, "parse_sts", _count_sts_in),
        ("model_io.serialize_ts", model_io, "serialize_ts", _count_sts_out),
        ("model_io.parse_controller", model_io, "parse_controller", None),
        ("model_io.serialize_controller", model_io, "serialize_controller", None),
    ]


def install(tracer: Tracer) -> None:
    """Replace every traced entry point at every place it can be called from."""
    from symquant import expr

    targets = _targets()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "symquant" or name.startswith("symquant.")]
    for name, owner, attr, count in targets:
        orig = owner.__dict__[attr]
        traced = tracer.wrap(name, orig, count)
        sites = tracer.sites.setdefault(name, [])
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            sites.append(f"{owner.__module__}.{owner.__name__}.{attr}")
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    sites.append(f"{mod.__name__}.{key}")

    evals = tracer._evals
    compiled = expr.Expression.fn.fget

    def counted_fn(self):
        inner = compiled(self)

        def fn(x, u, h):
            next(evals)
            return inner(x, u, h)
        return fn

    expr.Expression.fn = property(counted_fn, doc=expr.Expression.fn.__doc__)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_stage.py SPANS.json -- <symquant arguments>",
              file=sys.stderr)
        return 2
    out, stage_argv = argv[0], argv[2:]
    import symquant.cli

    tracer = Tracer()
    install(tracer)
    try:
        return symquant.cli.main(stage_argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
