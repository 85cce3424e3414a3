"""Command line front end.

Subcommands mirror the library pipeline: ``abstract`` builds a finite model
from a config file, ``refine`` re-partitions selected cells, ``synthesize``
computes a controller, ``simulate`` runs the refined controller on the
concrete system, ``verify-frr`` samples the refinement relation, and
``export-dot`` renders a stored model for graphviz.

Model files on disk carry no dynamics, so ``refine``, ``synthesize`` and
``verify-frr`` derive the model from the config (AppConfig.derive_model)
and trust the stored file only when its bytes equal the serialized
derivation.  For a delay-free config that is one derivation with batched
kernels (abstraction.derive_delayfree) over the partition the file is
for.  ``abstract`` derives a model of at least 2 * 4096 (cell, input)
pairs the same way and builds a smaller one pair by pair, so only a
small coarse file is confirmed by an independent construction; the tests
compare the two constructions on larger ones.  ``refine`` checks the
coarse file, frees that model and writes ``derive_model(refined=True)``,
the model that ``synthesize`` and ``verify-frr`` check the refined file
against; the tests and CI compare it with the per-pair build
(abstraction._delayfree_model) from scratch over the
refined partition.  A time-delay config builds its tube model.
A delay-free ``simulate`` only locates points, so it needs the config's
partition and no model; a time-delay ``simulate`` rebuilds the model for
its tube ids.

Exit codes: 0 on success, 1 on domain failures (validation errors, refinement
violations or a witness that checked nothing, unsolvable specifications, a
controller made for other inputs, aborted simulations), 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from .abstraction import TransitionSystem, input_lattice
from .config import AppConfig, ConfigError, load_config
from .dynamics import IntegrationError
from .frr import RefinementMap, sample_frr_delayfree, sample_frr_timedelay
from .model_io import (ModelFormatError, _dot_chunks, _fmt_vec,
                       load_controller, load_ts, sts_chunks, write_controller,
                       write_ts)
from .sim import export_trajectory, run_closed_loop
from .synthesis import SynthesisError, synthesize_sequence


class _DomainError(Exception):
    pass


def _load_model_checked(cfg: AppConfig, path: str, refined: bool) -> TransitionSystem:
    with open(path, "rb") as fh:
        ts = cfg.derive_model(refined=refined)
        line = _first_difference(fh, sts_chunks(ts))
    if line is not None:
        raise _DomainError(f"model file {path} does not match the config "
                           f"rebuild: first difference on line {line}")
    return ts


def _first_difference(fh, chunks) -> Optional[int]:
    """Line number (from 1) of the first byte where the binary file fh and
    the text chunks differ, or None when they are equal byte for byte."""
    newlines = 0
    for chunk in chunks:
        want = chunk.encode()
        got = fh.read(len(want))
        if got != want:
            same = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                        len(got))
            return newlines + want.count(b"\n", 0, same) + 1
        newlines += want.count(b"\n")
    return newlines + 1 if fh.read(1) else None


def cmd_abstract(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cfg.check_lipschitz()
    ts = cfg.build_model(refined=False)
    write_ts(ts, args.out)
    kind = "time-delay" if ts.kind == "timedelay" else "delay-free"
    print(f"abstract: wrote {kind} model with {len(ts.ids)} states, "
          f"{len(ts.inputs)} inputs, {ts.n_transitions} transitions to {args.out}")
    if ts.truncated:
        print(f"warning: tube exploration stopped at the budget of "
              f"{cfg.budget} tubes; pairs whose nominal successor was not "
              f"discovered are blocked, so the model is partial",
              file=sys.stderr)
    return 0


def cmd_refine(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if not cfg.zoom:
        raise _DomainError("config has no abstraction.zoom assignments to apply")
    if cfg.is_timedelay():
        raise _DomainError("refine applies to delay-free models; time-delay "
                           "models consume zoom assignments at build time")
    cfg.check_lipschitz(refined=True)
    _load_model_checked(cfg, args.model, refined=False)  # freed before the refined model
    ts = cfg.derive_model(refined=True)
    write_ts(ts, args.out)
    print(f"refine: wrote refined model with {len(ts.ids)} states, "
          f"{ts.n_transitions} transitions to {args.out}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ts = _load_model_checked(cfg, args.model, refined=True)
    if not cfg.target_points:
        raise _DomainError("synthesis.targets: no target points configured")
    spec = cfg.specification(ts)
    ctrl = synthesize_sequence(ts, spec, mode=cfg.spec_mode, max_hold=cfg.max_hold)
    write_controller(ctrl, args.out)
    n_entries = sum(len(p) for p in ctrl.phases)
    print(f"synthesize: wrote {spec.kind} controller with {ctrl.n_phases} "
          f"phase(s), {n_entries} entries to {args.out}")
    if cfg.spec_mode == "hold":
        print("warning: mode = hold follows nominal trajectories only, so this "
              "controller carries no refinement guarantee; mode = robust does",
              file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ctrl = load_controller(args.controller)
    sys_ = cfg.system
    # inputs as the files store them, at 9 significant digits; "none" ends
    # both lists, so one that stops early differs there
    got, want = ([f"[{_fmt_vec(u)}]" for u in us] + ["none"] for us in (
        ctrl.inputs, input_lattice(sys_.input_lo, sys_.input_hi, cfg.input_quantization)))
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    if i is not None:
        raise _DomainError(f"controller {args.controller} was made for other inputs: "
                           f"input {i} is {got[i]} there and {want[i]} in the config")
    if cfg.is_timedelay():
        if sys_.xi0 is None:
            raise _DomainError("system.xi0: required to simulate a time-delay "
                               "system")
        # tube ids are the order in which the build discovers them
        fmap, start = RefinementMap.from_ts(cfg.build_model()), {"xi0": sys_.xi0}
    else:
        if cfg.x0 is None:
            raise _DomainError("run.x0: required to simulate")
        # a delay-free run only locates points: no transitions needed
        fmap, start = RefinementMap(cfg.partition(refined=True)), {"x0": np.asarray(cfg.x0)}
    traj, report = run_closed_loop(sys_, ctrl, fmap, tau=cfg.tau, max_steps=cfg.max_steps,
                                   steps=cfg.steps, **start)
    export_trajectory(traj, args.out)
    print(f"simulate: wrote {len(traj.samples)} samples to {args.out}")
    print(report.as_text())
    if not report.completed:
        raise _DomainError(f"simulation did not complete: {report.reason}")
    return 0


def cmd_verify_frr(args: argparse.Namespace) -> int:
    for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value is not None and value < 0:
            raise _DomainError(f"{flag}: must be nonnegative, got {value}")
    cfg = load_config(args.config)
    ts = _load_model_checked(cfg, args.model, refined=True)
    samples = cfg.samples if args.samples is None else args.samples
    seed = cfg.seed if args.seed is None else args.seed
    if cfg.is_timedelay():
        report = sample_frr_timedelay(ts, samples, seed)
    else:
        report = sample_frr_delayfree(ts, samples, seed)
    print(report.as_text())
    if not report.passed:
        raise _DomainError(
            f"refinement check found {len(report.violations)} violation(s)"
            if report.checked else "refinement check checked no sample: "
            + (f"all {samples} were skipped" if samples else "0 were asked for"))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    ts = load_ts(args.model)
    if args.out:  # written piece by piece, as write_ts writes a model
        with open(args.out, "w") as fh:
            fh.writelines(_dot_chunks(ts))
        print(f"export-dot: wrote {args.out}")
    else:
        sys.stdout.writelines(_dot_chunks(ts))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symquant",
        description="symbolic models of sampled control systems via "
                    "logarithmic quantization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abstract", help="build a finite model from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("refine", help="re-partition selected cells of a model")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("synthesize", help="compute a controller for the "
                                          "configured specification")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("simulate", help="run the refined controller on the "
                                        "concrete system")
    p.add_argument("--config", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-frr", help="sample the refinement relation")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_verify_frr)

    p = sub.add_parser("export-dot", help="render a stored model as graphviz")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv: Optional[list] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ModelFormatError, SynthesisError, IntegrationError,
            _DomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
