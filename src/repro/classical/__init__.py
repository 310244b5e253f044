"""Classical MaxCut solvers: Goemans-Williamson (with from-scratch SDP
solvers), simulated annealing and a QUBO annealer.  The exact baselines
live in :mod:`repro.graphs.maxcut`."""

from repro.classical.gw import (
    DEFAULT_SLICES,
    GW_APPROX_RATIO,
    GWAbnormalTermination,
    GWResult,
    goemans_williamson,
    hyperplane_rounding,
    solve_maxcut_gw,
)
from repro.classical.local_search import simulated_annealing
from repro.classical.qubo import (
    QUBO,
    AnnealSample,
    SampleSet,
    SimulatedAnnealerSampler,
)
from repro.classical.sdp import SDPResult, solve_sdp, solve_sdp_admm, solve_sdp_mixing

__all__ = [
    "GW_APPROX_RATIO",
    "DEFAULT_SLICES",
    "GWAbnormalTermination",
    "GWResult",
    "goemans_williamson",
    "hyperplane_rounding",
    "solve_maxcut_gw",
    "simulated_annealing",
    "SDPResult",
    "solve_sdp",
    "solve_sdp_mixing",
    "solve_sdp_admm",
    "QUBO",
    "AnnealSample",
    "SampleSet",
    "SimulatedAnnealerSampler",
]
