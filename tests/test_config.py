import configparser
import io
from pathlib import Path

import numpy as np
import pytest

from symquant.abstraction import refine_cells
from symquant.config import AppConfig, ConfigError, load_config, parse_config_text
from symquant.dynamics import ControlSystem, TimeDelaySystem
from symquant.model_io import serialize_ts
from symquant.quantizers import LogQuantizerParams


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"
BASE = {
    "system": {
        "n": "2",
        "m": "1",
        "f": "\n x2\n -1.96*sin(x1) - 1.5*x2 + u1",
        "state_lo": "-1 -1",
        "state_hi": "1 1",
        "input_lo": "-2.5",
        "input_hi": "2.5",
    },
    "abstraction": {
        "tau": "0.2",
        "eta": "0.2",
        "d": "0.4",
        "mu": "0.2",
        "lipschitz": "6",
    },
}


def ini(overrides=None, drop=None):
    """Render BASE plus per-key overrides ('section.key': value, None deletes)."""
    import copy
    data = copy.deepcopy(BASE)
    for dotted in drop or []:
        sec, key = dotted.split(".", 1)
        if key == "*":
            data.pop(sec, None)
        else:
            data[sec].pop(key, None)
    for dotted, val in (overrides or {}).items():
        sec, key = dotted.split(".", 1)
        data.setdefault(sec, {})[key] = val
    out = []
    for sec, kv in data.items():
        out.append(f"[{sec}]")
        out.extend(f"{k} = {v}" for k, v in kv.items())
    return "\n".join(out) + "\n"


def test_minimal_config_parses_with_defaults():
    cfg = parse_config_text(ini())
    assert (cfg.system.n, cfg.system.m) == (2, 1)
    assert cfg.log_params == LogQuantizerParams(0.2, 0.4, "EQ20")
    assert cfg.lipschitz == 6.0
    assert cfg.input_quantization == ("uniform", 0.2)
    # a log input quantizer takes the state quantizer's eta and d by default
    log_in = parse_config_text(ini({"abstraction.input_quantizer": "log"}))
    assert log_in.input_quantization == ("log", LogQuantizerParams(0.2, 0.4, "EQ20"))
    assert cfg.growth_scale == 1.0
    assert cfg.zoom == {} and cfg.N == 0 and cfg.budget == 1000
    assert cfg.spec_kind == "reach" and cfg.spec_mode == "hold"
    assert cfg.max_hold == 64
    assert cfg.x0 is None and cfg.max_steps == 500
    assert cfg.seed == 1 and cfg.samples == 1000
    assert isinstance(cfg.system, ControlSystem)
    assert not cfg.is_timedelay()


def test_sampled_lipschitz_keyword():
    cfg = parse_config_text(ini({"abstraction.lipschitz": "sampled"}))
    assert cfg.lipschitz == "sampled-jacobian"


def test_zero_lipschitz_constant_is_valid():
    # a right-hand side that does not depend on the state has constant 0
    cfg = parse_config_text(ini({"abstraction.lipschitz": "0"}))
    assert cfg.lipschitz == 0.0
    with pytest.raises(ConfigError,
                       match="abstraction.lipschitz: expected finite numbers"):
        parse_config_text(ini({"abstraction.lipschitz": "nan"}))


def test_timedelay_config_builds_functional_system():
    cfg = parse_config_text(ini({
        "system.f": "\n x2\n -1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1",
        "system.theta": "0.2",
        "system.r": "0.2",
        "system.xi0": "\n -0.72 -0.72",
    }))
    assert cfg.is_timedelay()
    sysd = cfg.system
    assert isinstance(sysd, TimeDelaySystem)
    assert sysd.Theta == 0.2 and sysd.r == 0.2
    # one xi0 row means a constant functional over [-Theta, 0]
    assert sysd.xi0.t0 == -0.2 and sysd.xi0.t1 == 0.0
    assert np.allclose(sysd.xi0(-0.13), [-0.72, -0.72])


@pytest.mark.parametrize("theta,f", [
    ("0.2", "\n x2\n -x2 + 0.1*delay(x2, 0.2) + u1"),
    # an input delay alone: no window, so the last row is the functional
    ("0", "\n x2\n -x2 + u1"),
], ids=["window", "input-delay-only"])
def test_multirow_xi0_is_a_sampled_curve(theta, f):
    cfg = parse_config_text(ini({
        "system.f": f,
        "system.theta": theta,
        "system.r": "0.2",
        "system.xi0": "\n -0.7 -0.7\n -0.72 -0.72\n -0.74 -0.74",
    }))
    curve = cfg.system.xi0
    if theta == "0":
        assert curve.t0 == curve.t1 == 0.0
        assert curve.values.tolist() == [[-0.74, -0.74]]
        return
    assert np.allclose(curve(-0.2), [-0.7, -0.7])
    assert np.allclose(curve(0.0), [-0.74, -0.74])
    assert np.allclose(curve(-0.15), [-0.71, -0.71])


def test_zoom_rows_and_spline_default():
    cfg = parse_config_text(ini({"abstraction.zoom": "\n 12 1 1.0 0.3\n 0 10 1.0 0.1"}))
    assert set(cfg.zoom) == {0, 12}
    assert cfg.zoom[12].M == 1 and cfg.zoom[12].delta == 0.3
    assert cfg.N == max(0, min(8, 100) - 2)
    cfg2 = parse_config_text(ini({"abstraction.zoom": "\n 12 1 1.0 0.3"}))
    assert cfg2.N == 0
    cfg3 = parse_config_text(ini({"abstraction.N": "4"}))
    assert cfg3.N == 4
    assert parse_config_text(ini()).N == 0


def test_build_model_and_specification():
    text = ini({
        "synthesis.kind": "reach",
        "synthesis.targets": "\n 0 0\n 0.48 0",
        "run.x0": "-0.48 0",
    })
    cfg = parse_config_text(text)
    ts = cfg.build_model()
    assert len(ts.ids) == 25
    spec = cfg.specification(ts)
    assert spec.kind == "reach"
    assert spec.targets == [(12,)]  # reach keeps the first point only
    assert np.allclose(cfg.x0, [-0.48, 0.0])


ONE_D = {"system.n": "1", "system.f": "\n -0.5*x1 + u1", "system.state_lo": "-1",
         "system.state_hi": "1"}
THREE_D = {"system.n": "3", "system.f": "\n x2\n -1.96*sin(x1) - 1.5*x2 + u1\n -x3 + 0.5*x1",
           "system.state_lo": "-1 -1 -1", "system.state_hi": "1 1 1", "abstraction.mu": "0.5"}
# (config overrides, zoom rows); the 2-D cells are those of the pendulum
# lattice: 12 the deadzone, 0 and 4 corners, 22 merged [0.6, 1] on a face
REFINEMENTS = {
    "deadzone-and-corner": ({}, "\n 12 1 1.0 0.3\n 0 10 1.0 0.1"),
    "deadzone": ({}, "\n 12 1 1.0 0.3"),
    "merged-outer": ({}, "\n 22 10 1.0 0.1"),
    "adjacent": ({}, "\n 12 1 1.0 0.3\n 13 1 1.0 0.3"),
    "delta-0": ({}, "\n 7 1 1.0 0\n 12 1 1.0 0.3"),
    "delta-0-only": ({}, "\n 7 1 1.0 0"),
    "sampled-lipschitz": ({"abstraction.lipschitz": "sampled"},
                          "\n 12 1 1.0 0.3\n 17 1 1.0 0.2"),
    "blocked-pairs": ({}, "\n 4 10 1.0 0.1\n 20 10 1.0 0.1"),
    "1d": (ONE_D, "\n 2 1 1.0 0.1\n 4 10 1.0 0.1"),
    "3d": (THREE_D, "\n 62 1 1.0 0.3\n 0 4 1.0 0.3"),
}


def _coarse_and_refined(case):
    overrides, zoom = REFINEMENTS[case]
    cfg = parse_config_text(ini({**overrides, "abstraction.zoom": zoom}))
    return cfg, cfg.build_model(), cfg.build_model(refined=True)


@pytest.mark.parametrize("case", list(REFINEMENTS))
def test_refined_build_equals_refining_the_coarse_build(case):
    cfg, coarse, refined = _coarse_and_refined(case)
    derived = refine_cells(coarse, cfg.zoom)
    assert serialize_ts(derived) == serialize_ts(refined)
    assert np.array_equal(derived.endpoints, refined.endpoints)


def test_the_refinement_cases_are_what_their_names_say():
    _, coarse, refined = _coarse_and_refined("blocked-pairs")
    n_in = len(refined.inputs)
    assert any(np.diff(refined.indptr[k * n_in:(k + 1) * n_in + 1]).min() == 0
               for k, sid in enumerate(refined.ids.tolist()) if sid >= 25)
    _, coarse, _ = _coarse_and_refined("merged-outer")
    assert coarse.partition.cell_arrays(22)[1].tolist() == [1.0, 0.4]
    _, coarse, refined = _coarse_and_refined("delta-0-only")
    assert serialize_ts(refined) == serialize_ts(coarse)
    _, coarse, _ = _coarse_and_refined("1d")
    assert coarse.partition.cell_arrays(2)[2].tolist() == [0.0]
    _, coarse, refined = _coarse_and_refined("3d")
    assert coarse.partition.cell_arrays(62)[2].tolist() == [0.0, 0.0, 0.0]
    assert len(refined.ids) == 125 - 2 + 27 + 8


def test_specification_rejects_points_outside_the_box():
    cfg = parse_config_text(ini({"synthesis.targets": "\n 5 5"}))
    ts = cfg.build_model()
    with pytest.raises(ConfigError, match="synthesis.targets: row 1"):
        cfg.specification(ts)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(str(tmp_path / "nope.ini"))


def test_load_config_reads_files(tmp_path):
    p = tmp_path / "ok.ini"
    p.write_text(ini())
    assert load_config(str(p)).system.n == 2


def test_load_config_rejects_broken_ini_syntax(tmp_path):
    # duplicate sections and headerless keys are parser-level failures;
    # they must surface as ConfigError, not escape as configparser noise
    p = tmp_path / "dup.ini"
    p.write_text(ini() + "\n[system]\nn = 2\n")
    with pytest.raises(ConfigError, match="not parseable"):
        load_config(str(p))
    with pytest.raises(ConfigError, match="not parseable"):
        parse_config_text("n = 2\n" + ini())


@pytest.mark.parametrize("overrides,drop,fragment", [
    (None, ["system.*"], "system: section is missing"),
    (None, ["abstraction.*"], "abstraction: section is missing"),
    (None, ["system.n"], "system.n: must be an integer >= 1"),
    ({"system.n": "0"}, None, "system.n: must be an integer >= 1"),
    ({"system.n": "two"}, None, "system.n: expected an integer"),
    ({"system.f": "\n x2"}, None, "system.f: expected 2 expressions"),
    ({"system.f": "\n x2\n sin("}, None, "system.f: row 2"),
    (None, ["system.state_lo"], "system.state_lo: required key is missing"),
    ({"system.state_lo": "1 1"}, None, "nonempty interior"),
    ({"system.state_lo": "-1"}, None, "system.state_lo: expected 2 values"),
    ({"system.input_hi": "-3"}, None, "system.input_lo: input box empty"),
    ({"system.theta": "-0.1"}, None, "system.theta: must be nonnegative"),
    ({"system.xi0": "\n a b"}, None, "system.xi0: row 1: expected numbers"),
    ({"system.xi0": "\n 0.1"}, None, "system.xi0: row 1: expected 2 values"),
    (None, ["abstraction.tau"], "abstraction.tau: must be positive"),
    ({"abstraction.tau": "0"}, None, "abstraction.tau: must be positive"),
    ({"abstraction.variant": "EQ3"}, None, "abstraction.variant: expected one of"),
    ({"abstraction.eta": "1.2"}, None, "abstraction.eta: must be in (0, 1)"),
    ({"abstraction.eta": "0"}, None, "abstraction.eta: must be in (0, 1)"),
    ({"abstraction.d": "-1"}, None, "abstraction.d: must be positive"),
    ({"abstraction.mu": "0"}, None, "abstraction.mu: must be positive"),
    ({"abstraction.input_quantizer": "log", "abstraction.input_eta": "2"},
     None, "abstraction.input_eta: must be in (0, 1)"),
    ({"abstraction.lipschitz": "big"}, None,
     "abstraction.lipschitz: expected 'sampled' or a number"),
    ({"abstraction.lipschitz": "-2"}, None, "abstraction.lipschitz: must be positive"),
    ({"abstraction.steps": "0"}, None, "abstraction.steps: must be an integer >= 1"),
    ({"abstraction.growth_scale": "-0.5"}, None,
     "abstraction.growth_scale: must be nonnegative"),
    ({"abstraction.zoom": "\n 12 1 1.0"}, None,
     "abstraction.zoom: row 1: expected 'cell M Lambda delta'"),
    ({"abstraction.zoom": "\n 12 one 1.0 0.3"}, None,
     "abstraction.zoom: row 1: malformed numbers"),
    ({"abstraction.zoom": "\n 12 1 1.0 0.3\n 12 1 1.0 0.3"}, None,
     "abstraction.zoom: row 2: duplicate cell id 12"),
    ({"abstraction.zoom": "\n -3 1 1.0 0.3"}, None,
     "abstraction.zoom: row 1: cell id must be >= 0"),
    ({"abstraction.N": "-1"}, None, "abstraction.N: must be an integer >= 0"),
    ({"abstraction.budget": "0"}, None, "abstraction.budget: must be an integer >= 1"),
    ({"synthesis.kind": "avoid"}, None, "synthesis.kind: expected one of"),
    ({"synthesis.mode": "fast"}, None, "synthesis.mode: expected one of"),
    ({"synthesis.targets": "\n 0 0 0"}, None,
     "synthesis.targets: row 1: expected 2 values"),
    ({"synthesis.targets": "\n a b"}, None,
     "synthesis.targets: row 1: expected numbers"),
    ({"synthesis.max_hold": "0"}, None, "synthesis.max_hold: must be an integer >= 1"),
    ({"run.x0": "0"}, None, "run.x0: expected 2 values"),
    ({"run.max_steps": "0"}, None, "run.max_steps: must be an integer >= 1"),
    ({"run.samples": "-5"}, None, "run.samples: must be an integer >= 1"),
    ({"system.theta": "0.2", "system.r": "0.3",
      "system.f": "\n x2\n -x2 + delay(x2, 0.2) + u1"}, None,
     "system.r: must be an integer multiple"),
    # NaN and the infinities are rejected where the number is read
    ({"system.state_lo": "nan -1"}, None,
     "system.state_lo: expected finite numbers"),
    ({"system.input_hi": "inf"}, None, "system.input_hi: expected finite numbers"),
    ({"system.theta": "nan"}, None, "system.theta: expected finite numbers"),
    ({"system.xi0": "\n 0 0\n -inf 0"}, None,
     "system.xi0: row 2: expected finite numbers"),
    ({"abstraction.tau": "inf"}, None, "abstraction.tau: expected finite numbers"),
    ({"abstraction.eta": "nan"}, None, "abstraction.eta: expected finite numbers"),
    ({"abstraction.lipschitz": "inf"}, None,
     "abstraction.lipschitz: expected finite numbers"),
    ({"abstraction.growth_scale": "inf"}, None,
     "abstraction.growth_scale: expected finite numbers"),
    ({"abstraction.zoom": "\n 12 1 nan 0.3"}, None,
     "abstraction.zoom: row 1: expected finite numbers"),
    ({"abstraction.zoom": "\n 12 1 1.0 inf"}, None,
     "abstraction.zoom: row 1: expected finite numbers"),
    ({"synthesis.targets": "\n nan 0"}, None,
     "synthesis.targets: row 1: expected finite numbers"),
    ({"synthesis.targets": "\n 0 0\n 0 -inf"}, None,
     "synthesis.targets: row 2: expected finite numbers"),
    ({"run.x0": "nan 0"}, None, "run.x0: expected finite numbers"),
    ({"run.samples": "0"}, None, "run.samples: must be an integer >= 1"),
    # values are literal: a % is a character, and %(key)s pastes in nothing
    ({"system.input_hi": "2.5 % 1"}, None, "system.input_hi: expected numbers"),
    ({"system.f": "\n %(n)s\n -1.96*sin(x1) - 1.5*x2 + u1"},
     None, "system.f: row 1: unexpected '%'"),
    # zoom rows name cells of the unrefined lattice (25 cells here)
    ({"abstraction.zoom": "\n 9999 1 1.0 0.1"}, None,
     "abstraction.zoom: row 1: cell 9999 is not a cell of the 25-cell lattice"),
    # an input box between two quantized inputs fails at load, not at build
    ({"system.input_lo": "0.05", "system.input_hi": "0.1"}, None,
     "abstraction.mu: input axis 1 contains no multiple of 0.2"),
    ({"system.input_lo": "0.05", "system.input_hi": "0.1",
      "abstraction.input_quantizer": "log"}, None,
     "abstraction.input_d: input axis 1 contains no quantizer level"),
    # log input levels share the state quantizer's runaway guard
    ({"abstraction.input_quantizer": "log", "abstraction.input_eta": "0.01",
      "abstraction.input_d": "1e-300"}, None,
     "abstraction.input_d: logarithmic level enumeration ran away"),
    # a misspelled key or section is named, not ignored for its default
    ({"abstraction.lipshitz": "6"}, ["abstraction.lipschitz"],
     "abstraction.lipshitz: unknown key"),
    ({"runn.x0": "0 0"}, None, "runn: unknown section"),
    ({"system.X0": "0 0"}, None, "system.x0: unknown key"),
    # ... also when it stands in for a required key
    ({"abstraction.etta": "0.2"}, ["abstraction.eta"],
     "abstraction.etta: unknown key"),
])
def test_validation_messages(overrides, drop, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(ini(overrides, drop))
    assert fragment in str(err.value)


def _workload_keys():
    """(workload, section, key) of every key of the benchmark configs."""
    out = []
    for path in sorted(WORKLOADS.glob("*.ini")):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path)
        out.extend((path.stem, sec, key) for sec in cp.sections() for key in cp[sec])
    return out


@pytest.mark.parametrize("value", ["%", "%(n)s"])
@pytest.mark.parametrize("workload,section,key", _workload_keys())
def test_every_key_rejects_a_percent_value_by_name(workload, section, key, value):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(WORKLOADS / f"{workload}.ini")
    cp[section][key] = value
    text = io.StringIO()
    cp.write(text)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text.getvalue())
    assert str(err.value).startswith((f"{section}.", f"{section}:"))


def test_delay_expression_requires_declared_theta():
    # the functional horizon comes from theta; a delay reaching past it is
    # a system-level inconsistency caught when the system is assembled
    with pytest.raises(ConfigError, match="system:"):
        parse_config_text(ini({
            "system.f": "\n x2\n -x2 + delay(x2, 0.5) + u1",
            "system.theta": "0.2",
            "system.r": "0.2",
        }))


def test_runaway_lattice_names_abstraction_d():
    # eta = 0.01 and d = 1e-300 need about 34,000 levels to reach the box
    # edge; the per-axis regions are built at load, so the error names the
    # key instead of surfacing from the first build
    with pytest.raises(ConfigError) as err:
        parse_config_text(ini({"abstraction.eta": "0.01",
                               "abstraction.d": "1e-300"}))
    assert str(err.value).startswith("abstraction.d: too small for the state box")
