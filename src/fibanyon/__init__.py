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
from .errors import (
    BlockMismatch,
    CopyLimitExceeded,
    DecompositionViolation,
    DimensionMismatch,
    DomainError,
    FibanyonError,
    NormalizationError,
    NotAState,
    SupportViolation,
    TargetRankError,
    ValidationError,
)
from .measures import MeasureReport, StateClass, classify, measure_report, shannon_entropy
from .model import (
    CHARGE_ORDER,
    LOG2_PHI,
    PHI,
    PHI_EXACT,
    TOTAL_DIMENSION,
    Charge,
    QSqrt5,
    fuse,
    fusion_space_dim,
    qdim,
    qdim_float,
)
from .multicopy import CopySeries, copy_series, e_aree_ncopy, n_copy
from .states import (
    SchmidtState,
    new_schmidt_state,
    random_schmidt_state,
    state_from_dict,
    state_to_dict,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BlockMismatch",
    "CHARGE_ORDER",
    "CHSHResult",
    "Charge",
    "CheckResult",
    "CopyLimitExceeded",
    "CopySeries",
    "DecompositionViolation",
    "DimensionMismatch",
    "DomainError",
    "FibanyonError",
    "LOG2_PHI",
    "MeasureReport",
    "NormalizationError",
    "NotAState",
    "PHI",
    "PHI_EXACT",
    "QSqrt5",
    "SchmidtState",
    "StateClass",
    "SupportViolation",
    "TOTAL_DIMENSION",
    "TSIRELSON",
    "TargetRankError",
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
    "shannon_entropy",
    "state_from_dict",
    "state_to_dict",
    "type_c_bound",
]
