"""Runge-Kutta methods as classical ODE integrators and as convolutional
time-step blocks (erk / irk / time-channel networks)."""

from .tensor import Parameter, Tape, Tensor, backward
from .rk import ButcherTableau, OdeProblem, estimate_order, integrate, rk_step, tableau_library
from .model_spec import (ModelSpec, PeriodSpec, convert_cliquenet, convert_densenet,
                         count_parameters, parse_model_name, render_model_name)
from .network import build_model, forward, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "Parameter", "Tape", "Tensor", "backward",
    "ButcherTableau", "OdeProblem", "estimate_order", "integrate", "rk_step", "tableau_library",
    "ModelSpec", "PeriodSpec", "convert_cliquenet", "convert_densenet", "count_parameters",
    "parse_model_name", "render_model_name",
    "build_model", "forward", "load_checkpoint", "save_checkpoint",
]
