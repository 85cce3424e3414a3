"""Finite symbolic models of sampled nonlinear control systems.

The package builds finite transition systems from delay-free and time-delay
continuous dynamics by quantizing states with logarithmic (and, inside
selected cells, uniform "zoom") quantizers, checks that the concrete system
refines the finite model, synthesizes reachability and waypoint-sequence
controllers on the finite side, and replays them against the original
dynamics.
"""

from .abstraction import build_delayfree, build_timedelay, refine_cells
from .config import load_config
from .dynamics import ControlSystem, SampledCurve, TimeDelaySystem
from .frr import RefinementMap, sample_frr_delayfree, sample_frr_timedelay
from .model_io import serialize_controller
from .quantizers import LogQuantizerParams, Partition, ZoomQuantizerParams
from .sim import run_closed_loop, validate_path
from .synthesis import Specification, synthesize_sequence

__version__ = "0.1.0"

__all__ = [
    "ControlSystem", "LogQuantizerParams", "Partition", "RefinementMap",
    "SampledCurve", "Specification", "TimeDelaySystem", "ZoomQuantizerParams",
    "build_delayfree", "build_timedelay", "load_config", "refine_cells",
    "run_closed_loop", "sample_frr_delayfree", "sample_frr_timedelay",
    "serialize_controller", "synthesize_sequence", "validate_path",
]
