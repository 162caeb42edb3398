"""CEGAR model checker for a toy integer language, with refinement selection
over infeasible sliced prefixes."""

from .engine import Limits, RunStats, Verdict, cegar, extract_error_path, reach
from .frontend import ControlFlowAutomaton, ParseError, cfa_to_dot, load_cfa
from .interpolation import (
    InterpolantSequence,
    InterpolationError,
    interpolant_sequence,
    interpolate,
)
from .paths import Path, extract_sliced_prefixes, sp_seq
from .refinement import (
    DomainType,
    Heuristic,
    Precision,
    choose_sliced_prefix,
    classify_domain_types,
    refine_selecting,
    score_interpolant_sequence,
)
from .values import (
    BOTTOM,
    TOP,
    Assignment,
    evaluate,
    implies,
    restrict,
    sp,
)

__version__ = "0.1.0"
