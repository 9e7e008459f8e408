"""Second-order normalization at the triangular libration points of the
planar restricted three-body problem with radiation pressure, oblateness
and dissipative drag.

Every closed-form series evaluated by this package is cross-checked
against an independent numeric oracle (Newton solves, truncated Taylor
expansion, symplectic eigenvector construction, harmonic division);
`l4norm.verify.run_pipeline` chains the oracle stages, `l4norm.verify.audit`
compares the printed tables with them, and `l4norm.errata` records the
confirmed discrepancies.
"""

from .dalembert import FrequencyPair, moser_check
from .equilibria import (
    EquilibriumPoint,
    OriginShift,
    epsilon_form,
    offset_ab,
    solve_triangular_numeric,
    triangular_series,
)
from .model import ModelParams
from .normalform import NormalModeData, frequencies, j_numeric
from .polyalg import taylor_lagrangian
from .verify import PipelineOptions, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "EquilibriumPoint",
    "FrequencyPair",
    "ModelParams",
    "NormalModeData",
    "OriginShift",
    "PipelineOptions",
    "epsilon_form",
    "frequencies",
    "j_numeric",
    "moser_check",
    "offset_ab",
    "run_pipeline",
    "solve_triangular_numeric",
    "taylor_lagrangian",
    "triangular_series",
    "__version__",
]
