"""Estimator-driven adaptive mesh refinement (AMR).

The solve → estimate → mark → refine loop that turns the paper's fast
re-meshing into an adaptive solver: each cycle rebuilds the adapted
mesh with the same construct → balance → nodes pipeline as a cold
build, and the refined solution warm-starts the next CG solve.
"""

from .estimators import poisson_estimator
from .loop import AMRResult, amr_solve
from .marking import dorfler_mark, maximum_mark

__all__ = [
    "poisson_estimator",
    "dorfler_mark",
    "maximum_mark",
    "amr_solve",
    "AMRResult",
]
