"""Finite symbolic models of sampled nonlinear control systems.

The package builds finite transition systems from delay-free and time-delay
continuous dynamics by quantizing states with logarithmic (and, inside
selected cells, uniform "zoom") quantizers, checks that the concrete system
refines the finite model, synthesizes reachability and waypoint-sequence
controllers on the finite side, and replays them against the original
dynamics.
"""

from .abstraction import (AbstractState, SplineTube, TransitionSystem,
                          build_delayfree, build_timedelay,
                          growth_bound_delayfree, knot_times,
                          log_input_lattice, psi2, refine_cells, spline_basis,
                          tube_interpolant, uniform_input_lattice)
from .config import AppConfig, ConfigError, load_config, parse_config_text
from .dynamics import (ControlSystem, IntegrationError, SampledCurve,
                       TimeDelaySystem, estimate_lipschitz, integrate,
                       integrate_delay)
from .expr import Expression, ExprError, evaluate, parse, to_source
from .frr import (FrrReport, RefinementMap, Violation, check_frr_finite,
                  sample_frr_delayfree, sample_frr_timedelay)
from .model_io import (ModelFormatError, export_dot, load_controller, load_ts,
                       parse_controller, parse_sts, serialize_controller,
                       serialize_ts, write_controller, write_ts)
from .quantizers import (Cell, LogQuantizerParams, Partition,
                         ZoomQuantizerParams, log_quantize, zoom_lattice,
                         zoom_quantize)
from .sim import (Trajectory, TrajectorySample, export_trajectory,
                  run_closed_loop, validate_path)
from .synthesis import (Controller, Specification, SynthesisError,
                        synthesize_reach, synthesize_sequence)

__version__ = "0.1.0"

__all__ = [
    "AbstractState", "AppConfig", "Cell", "ConfigError",
    "ControlSystem", "Controller", "ExprError", "Expression",
    "FrrReport", "IntegrationError", "LogQuantizerParams",
    "ModelFormatError", "Partition", "RefinementMap", "SampledCurve",
    "Specification", "SplineTube", "SynthesisError", "TimeDelaySystem",
    "Trajectory", "TrajectorySample", "TransitionSystem", "Violation",
    "ZoomQuantizerParams", "build_delayfree", "build_timedelay",
    "check_frr_finite", "estimate_lipschitz", "evaluate", "export_dot",
    "export_trajectory", "growth_bound_delayfree", "integrate",
    "integrate_delay", "knot_times", "load_config", "load_controller",
    "load_ts", "log_input_lattice", "log_quantize", "parse",
    "parse_config_text", "parse_controller", "parse_sts", "psi2",
    "refine_cells",
    "run_closed_loop", "sample_frr_delayfree", "sample_frr_timedelay",
    "serialize_controller", "serialize_ts", "spline_basis",
    "synthesize_reach", "synthesize_sequence", "to_source",
    "tube_interpolant", "uniform_input_lattice", "validate_path",
    "write_controller", "write_ts", "zoom_lattice", "zoom_quantize",
]
