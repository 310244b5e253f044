"""QAOA core: fast energy evaluation, the batched sweep engine, parameter
strategies, the solver and the recursive-QAOA extension."""

from repro.qaoa.analytic import AnalyticP1Energy, angle_axes
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.engine import SweepEngine
from repro.qaoa.params import (
    default_iterations,
    fixed_init,
    initial_parameters,
    linear_ramp_init,
    random_init,
    transfer_parameters,
)
from repro.qaoa.rqaoa import RQAOAResult, rqaoa_solve
from repro.qaoa.solver import QAOAResult, QAOASolver, solve_maxcut_qaoa

__all__ = [
    "AnalyticP1Energy",
    "angle_axes",
    "MaxCutEnergy",
    "SweepEngine",
    "QAOAResult",
    "QAOASolver",
    "solve_maxcut_qaoa",
    "RQAOAResult",
    "rqaoa_solve",
    "initial_parameters",
    "linear_ramp_init",
    "fixed_init",
    "random_init",
    "transfer_parameters",
    "default_iterations",
]
