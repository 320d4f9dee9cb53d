"""Entanglement and Bell nonlocality toolkit for pure Fibonacci-anyon states.

The package computes the four entanglement measures of bipartite pure
anyonic states (entanglement entropy, relative entropy of entanglement,
charge entanglement, conventional entanglement), builds joint multi-copy
states and their per-copy measure series, computes the CHSH Bell value
of joint states over charge-graded local observables, and certifies
locality when no joint sector has Schmidt rank >= 2, all in closed form
from grouped Schmidt data.  The dense graded operators that cross-check
those closed forms are in the submodule :mod:`fibanyon.oracle` (``from
fibanyon import oracle``), which this namespace does not re-export.  All
values are immutable and all operations are pure functions, so they are
safe to share across concurrent workers.
"""

from .bell import TSIRELSON, CHSHResult, local_terms, optimize_chsh, type_c_bound
from .errors import CopyLimitExceeded, DecompositionViolation, FibanyonError, ValidationError
from .measures import MeasureReport, StateClass, classify, measure_report
from .model import (
    CHARGE_ORDER,
    LOG2_PHI,
    PHI,
    PHI_EXACT,
    Charge,
    QSqrt5,
    fuse,
    fusion_space_dim,
    qdim,
    qdim_float,
)
from .multicopy import CopySeries, copy_series, e_aree_ncopy, n_copy
from .states import SchmidtState, new_schmidt_state, random_schmidt_state, state_from_dict
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "CHARGE_ORDER",
    "CHSHResult",
    "Charge",
    "CopyLimitExceeded",
    "CopySeries",
    "DecompositionViolation",
    "FibanyonError",
    "LOG2_PHI",
    "MeasureReport",
    "PHI",
    "PHI_EXACT",
    "QSqrt5",
    "SchmidtState",
    "StateClass",
    "TSIRELSON",
    "ValidationError",
    "classify",
    "copy_series",
    "e_aree_ncopy",
    "fuse",
    "fusion_space_dim",
    "local_terms",
    "measure_report",
    "n_copy",
    "new_schmidt_state",
    "optimize_chsh",
    "qdim",
    "qdim_float",
    "random_schmidt_state",
    "run_suite",
    "state_from_dict",
    "type_c_bound",
]
