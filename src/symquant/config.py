"""INI configuration: every free parameter of the toolkit in one file.

Sections: [system] (dimensions, boxes, vector field, delays, initial
functional), [abstraction] (sampling period, quantizers, Lipschitz mode,
zoom assignments, spline count, exploration budget), [synthesis]
(specification kind, mode, waypoint points), [run] (initial state, step
limit, seed, sample count).  Multi-valued keys (vector field rows, zoom
assignments, waypoints, xi0 samples) use indented continuation lines.
Validation failures name the offending field, e.g. "abstraction.eta: must
be in (0, 1)".  Values are literal: a % in a value is a character, never an
interpolation.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .abstraction import (TransitionSystem, build_delayfree, build_timedelay,
                          derive_delayfree, growth_rates, input_lattice,
                          refine_cells)
from .dynamics import (ControlSystem, IntegrationError, TimeDelaySystem,
                       DEFAULT_STEPS, history_curve)
from .expr import ExprError, parse as parse_expr
from .quantizers import LogQuantizerParams, Partition, ZoomQuantizerParams
from .synthesis import Specification


class ConfigError(ValueError):
    pass


def _rows(raw: str) -> List[str]:
    return [ln.strip() for ln in raw.splitlines() if ln.strip()]


@dataclass
class AppConfig:
    """A parsed config.  It keeps what parse_config built while checking
    the file, so a stage builds each once: the plant (system), the
    unrefined state lattice (lattice, whose params are the state
    quantizer's), the input quantizer and a resolved N."""

    system: Union[ControlSystem, TimeDelaySystem]
    tau: float
    lattice: Partition
    # ("uniform", mu) or ("log", LogQuantizerParams)
    input_quantization: Tuple[str, Union[float, LogQuantizerParams]]
    lipschitz: Union[str, float]
    steps: int
    growth_scale: float
    zoom: Dict[int, ZoomQuantizerParams]
    N: int  # spline knot count, resolved from the zoom rows when not given
    budget: int

    spec_kind: str
    spec_mode: str
    target_points: List[np.ndarray]
    max_hold: int

    x0: Optional[np.ndarray]
    max_steps: int
    seed: int
    samples: int

    # -- derived builders ----------------------------------------------------

    def is_timedelay(self) -> bool:
        return isinstance(self.system, TimeDelaySystem)

    def check_lipschitz(self, refined: bool = False) -> None:
        """Refuse a numeric lipschitz below the largest rate that 'sampled'
        gives the model of build_model(refined) (abstraction.growth_rates):
        that model would not be sound.  Where the derivative cannot be
        sampled, the numeric rate is the only way to build and is taken as
        given."""
        if isinstance(self.lipschitz, str):
            return
        part = self.partition(refined or self.is_timedelay())
        try:
            rate = float(growth_rates(self.system, self.tau, part).max())
        except IntegrationError:
            return
        _check(self.lipschitz >= rate, "abstraction.lipschitz",
               f"{self.lipschitz!r} is below the sampled rate {rate!r} of this plant, "
               f"so the model would not be sound; use at least that, or 'sampled'")

    def build_model(self, refined: bool = False) -> TransitionSystem:
        """The model of the config on self.partition(refined); a tube model
        always takes the zoom rows, at build time."""
        tubes = self.is_timedelay()
        build, extra = (build_timedelay, {"N": self.N, "budget": self.budget}) \
            if tubes else (build_delayfree, {})
        return build(self.system, self.tau, self.partition(refined or tubes),
                     input_quantization=self.input_quantization,
                     lipschitz=self.lipschitz, steps=self.steps,
                     growth_scale=self.growth_scale, **extra)

    def derive_model(self, refined: bool = False) -> TransitionSystem:
        """build_model(refined), byte for byte, for a stage that checks a
        model file.  A delay-free model is derived once, with batched
        kernels (abstraction.derive_delayfree) over self.partition(refined).
        refine_cells with no zoom rows hands it back unchanged; the call
        stays because bench/trace_stage.py reads a stage's model counters
        from the builders it wraps (build_delayfree, build_timedelay,
        refine_cells), not from derive_delayfree.  A tube model is built."""
        if self.is_timedelay():
            return self.build_model(refined)
        return refine_cells(derive_delayfree(self.system, self.tau, self.partition(refined),
                                             input_quantization=self.input_quantization,
                                             lipschitz=self.lipschitz, steps=self.steps,
                                             growth_scale=self.growth_scale), {})

    def partition(self, refined: bool = False) -> Partition:
        """The state lattice, or its copy zoom-refined by the zoom rows
        when refined is set and there are any."""
        return self.lattice.refined(self.zoom) if refined and self.zoom else self.lattice

    def specification(self, ts: TransitionSystem) -> Specification:
        if ts.partition is None:
            raise ConfigError("synthesis.targets: model has no partition to "
                              "resolve target points")
        targets = []
        for i, p in enumerate(self.target_points):
            try:
                cid = ts.partition.locate(p)
            except ValueError as err:
                raise ConfigError(f"synthesis.targets: row {i + 1}: {err}") from err
            if ts.kind == "timedelay":
                # a functional state is "at" the point when every knot of its
                # tube lies in the located cell
                ids = tuple(ts.ids[(ts.knots == cid).all(axis=1)].tolist())
                if not ids:
                    raise ConfigError(
                        f"synthesis.targets: row {i + 1}: no reachable tube "
                        f"stays in cell {cid} over its whole memory window")
                targets.append(ids)
            else:
                targets.append((cid,))
        if self.spec_kind == "reach":
            targets = [targets[0]]
        return Specification(self.spec_kind, targets)


# ---------------------------------------------------------------------------
# parsing helpers: every failure names section.key


# the keys of each section, lower-cased as configparser stores them
_KEYS = {
    "system": ("n", "m", "f", "state_lo", "state_hi", "input_lo", "input_hi",
               "theta", "r", "xi0"),
    "abstraction": ("tau", "variant", "eta", "d", "input_quantizer", "mu",
                    "input_eta", "input_d", "lipschitz", "steps",
                    "growth_scale", "zoom", "n", "budget"),
    "synthesis": ("kind", "mode", "targets", "max_hold"),
    "run": ("x0", "max_steps", "seed", "samples"),
}


class _Section:
    def __init__(self, cp: configparser.ConfigParser, name: str):
        # a misspelled key would otherwise be ignored for its default, or
        # reported as the key it was meant to be, missing
        self.name = name
        self.present = cp.has_section(name)
        self._sec = cp[name] if self.present else {}
        for key in self._sec:
            _check(key in _KEYS[name], f"{name}.{key}", "unknown key")

    def raw(self, key: str, default: Optional[str] = None) -> Optional[str]:
        val = self._sec.get(key)
        return val if val is not None else default

    def require(self, key: str) -> str:
        val = self.raw(key)
        if val is None:
            raise ConfigError(f"{self.name}.{key}: required key is missing")
        return val

    def floats(self, key: str, count: Optional[int] = None,
               default: Optional[str] = None,
               required: bool = False) -> Optional[np.ndarray]:
        """The finite numbers of key; None when it is missing or empty,
        unless it is required."""
        raw = self.raw(key, default)
        if not raw:
            if required:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return None
        where = f"{self.name}.{key}"
        vals = _finite(raw.split(), where, f"expected numbers, got {raw!r}")
        _check(count is None or len(vals) == count, where,
               f"expected {count} values, got {len(vals)}")
        return vals

    def rows(self, key: str, count: int) -> List[np.ndarray]:
        """The finite numbers of each nonblank line of key, count per line."""
        out = []
        for i, row in enumerate(_rows(self.raw(key, ""))):
            where = f"{self.name}.{key}: row {i + 1}"
            out.append(_finite(row.split(), where, "expected numbers"))
            _check(len(out[-1]) == count, where, f"expected {count} values")
        return out

    def number(self, key: str, default: Optional[str] = None,
               what: str = "a number") -> Optional[float]:
        raw = self.raw(key, default)
        if raw is None:
            return None
        where, bad = f"{self.name}.{key}", f"expected {what}, got {raw!r}"
        vals = _finite(raw.split(), where, bad)
        _check(len(vals) == 1, where, bad)
        return float(vals[0])

    def integer(self, key: str, default: Optional[str] = None,
                least: Optional[int] = None) -> Optional[int]:
        """The integer of key, or of default when key is missing.  With
        least, a value below it, or a missing key without a default, fails
        with "must be an integer >= least"."""
        where, raw = f"{self.name}.{key}", self.raw(key, default)
        try:
            val = None if raw is None else int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}")
        _check(least is None or (val is not None and val >= least), where,
               f"must be an integer >= {least}")
        return val

    def choice(self, key: str, options: Tuple[str, ...], default: str) -> str:
        val = self.raw(key, default)
        if val not in options:
            raise ConfigError(f"{self.name}.{key}: expected one of {options}, "
                              f"got {val!r}")
        return val


def _finite(words: List[str], where: str, malformed: str) -> np.ndarray:
    """The numbers written in words.  A malformed one raises
    "where: malformed"; NaN or an infinity raises "where: expected finite
    numbers", since no bound, quantizer parameter or point means anything
    with one."""
    try:
        vals = np.array([float(v) for v in words])
    except ValueError:
        raise ConfigError(f"{where}: {malformed}")
    if not np.isfinite(vals).all():
        raise ConfigError(f"{where}: expected finite numbers")
    return vals


def _check(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def load_config(path: str) -> AppConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file not parseable: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return parse_config(cp)


def parse_config_text(text: str) -> AppConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file not parseable: {exc}") from exc
    return parse_config(cp)


def parse_config(cp: configparser.ConfigParser) -> AppConfig:
    for name in cp.sections():
        _check(name in _KEYS, name, "unknown section")
    sysc = _Section(cp, "system")
    absc = _Section(cp, "abstraction")
    sync = _Section(cp, "synthesis")
    runc = _Section(cp, "run")
    if not sysc.present:
        raise ConfigError("system: section is missing")
    if not absc.present:
        raise ConfigError("abstraction: section is missing")

    n = sysc.integer("n", least=1)
    m = sysc.integer("m", least=1)

    rhs = _rows(sysc.require("f"))
    _check(len(rhs) == n, "system.f", f"expected {n} expressions, got {len(rhs)}")
    exprs = []
    for i, s in enumerate(rhs):
        try:
            exprs.append(parse_expr(s))
        except ExprError as err:
            raise ConfigError(f"system.f: row {i + 1}: {err}") from err

    state_lo = sysc.floats("state_lo", n, required=True)
    state_hi = sysc.floats("state_hi", n, required=True)
    _check(bool(np.all(state_lo < state_hi)), "system.state_lo",
           "state box must have nonempty interior")
    input_lo = sysc.floats("input_lo", m, required=True)
    input_hi = sysc.floats("input_hi", m, required=True)
    _check(bool(np.all(input_lo <= input_hi)), "system.input_lo", "input box empty")

    theta = sysc.number("theta", "0") or 0.0
    r = sysc.number("r", "0") or 0.0
    _check(theta >= 0, "system.theta", "must be nonnegative")
    _check(r >= 0, "system.r", "must be nonnegative")
    xi0_rows = np.array(sysc.rows("xi0", n)) if sysc.raw("xi0") else None

    tau = absc.number("tau")
    _check(tau is not None and tau > 0, "abstraction.tau", "must be positive")
    variant = absc.choice("variant", ("EQ2", "EQ20"), "EQ20")
    eta = absc.number("eta")
    _check(eta is not None and 0 < eta < 1, "abstraction.eta", "must be in (0, 1)")
    d = absc.number("d")
    _check(d is not None and d > 0, "abstraction.d", "must be positive")
    try:  # a d too small for the state box makes the levels run away
        lattice = Partition(state_lo, state_hi, LogQuantizerParams(eta, d, variant))
    except ValueError as err:
        raise ConfigError(f"abstraction.d: too small for the state box: {err}") from err
    input_quantizer = absc.choice("input_quantizer", ("uniform", "log"), "uniform")
    mu = absc.number("mu", "0.2")
    _check(mu > 0, "abstraction.mu", "must be positive")
    input_eta = absc.number("input_eta", str(eta))
    input_d = absc.number("input_d", str(d))
    if input_quantizer == "log":
        _check(0 < input_eta < 1, "abstraction.input_eta", "must be in (0, 1)")
        _check(input_d > 0, "abstraction.input_d", "must be positive")
        input_quantization = ("log", LogQuantizerParams(input_eta, input_d, variant))
    else:
        input_quantization = ("uniform", mu)
    try:  # an input box between two quantized inputs holds none
        input_lattice(input_lo, input_hi, input_quantization)
    except ValueError as err:
        key = "input_d" if input_quantizer == "log" else "mu"
        raise ConfigError(f"abstraction.{key}: {err}") from err

    lip_raw = absc.raw("lipschitz", "sampled")
    if lip_raw == "sampled":
        lipschitz: Union[str, float] = "sampled-jacobian"
    else:
        lipschitz = absc.number("lipschitz", what="'sampled' or a number")
        _check(lipschitz >= 0, "abstraction.lipschitz", "must be positive or zero")

    steps = absc.integer("steps", str(DEFAULT_STEPS), least=1)
    growth_scale = absc.number("growth_scale", "1")
    _check(growth_scale >= 0, "abstraction.growth_scale", "must be nonnegative")

    zoom: Dict[int, ZoomQuantizerParams] = {}
    if absc.raw("zoom"):
        n_cells = len(lattice.ids)
        for i, row in enumerate(_rows(absc.raw("zoom"))):
            parts = row.split()
            _check(len(parts) == 4, "abstraction.zoom",
                   f"row {i + 1}: expected 'cell M Lambda delta'")
            try:
                cid, M = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigError(f"abstraction.zoom: row {i + 1}: malformed numbers")
            Lam, delta = _finite(parts[2:], f"abstraction.zoom: row {i + 1}",
                                 "malformed numbers").tolist()
            _check(cid >= 0, "abstraction.zoom", f"row {i + 1}: cell id must be >= 0")
            _check(cid < n_cells, "abstraction.zoom",
                   f"row {i + 1}: cell {cid} is not a cell of the "
                   f"{n_cells}-cell lattice")
            _check(cid not in zoom, "abstraction.zoom",
                   f"row {i + 1}: duplicate cell id {cid}")
            try:
                zoom[cid] = ZoomQuantizerParams(M, Lam, delta)
            except ValueError as err:
                raise ConfigError(f"abstraction.zoom: row {i + 1}: {err}") from err

    if absc.raw("N"):
        N = absc.integer("N", least=0)
    else:
        # without N, the largest zoom M sets it; no zoom rows give 0
        M = max((z.M for z in zoom.values()), default=0)
        N = max(0, min(8, M * M) - 2)
    budget = absc.integer("budget", "1000", least=1)

    spec_kind = sync.choice("kind", ("reach", "sequence"), "reach")
    spec_mode = sync.choice("mode", ("hold", "robust"), "hold")
    target_points = sync.rows("targets", n)
    max_hold = sync.integer("max_hold", "64", least=1)

    x0 = runc.floats("x0", n)
    max_steps = runc.integer("max_steps", "500", least=1)
    seed = runc.integer("seed", "1")
    _check(seed >= 0, "run.seed", "must be nonnegative")
    samples = runc.integer("samples", "1000", least=1)

    if r > 0:
        k = r / tau
        _check(abs(k - round(k)) < 1e-9, "system.r",
               f"must be an integer multiple of tau={tau}")

    try:
        if theta > 0 or r > 0 or any("delay(" in s for s in rhs):
            # the initial functional on [-theta, 0] through the xi0 rows
            xi0 = None if xi0_rows is None else history_curve(xi0_rows, theta)
            system = TimeDelaySystem(n, m, state_lo, state_hi, input_lo, input_hi,
                                     exprs, theta, r, xi0)
        else:
            system = ControlSystem(n, m, state_lo, state_hi, input_lo, input_hi,
                                   exprs)
    except (ValueError, ExprError) as err:
        raise ConfigError(f"system: {err}") from err
    return AppConfig(system=system, tau=tau, lattice=lattice,
                     input_quantization=input_quantization,
                     lipschitz=lipschitz, steps=steps,
                     growth_scale=growth_scale, zoom=zoom, N=N, budget=budget,
                     spec_kind=spec_kind, spec_mode=spec_mode,
                     target_points=target_points, max_hold=max_hold,
                     x0=x0, max_steps=max_steps, seed=seed, samples=samples)
