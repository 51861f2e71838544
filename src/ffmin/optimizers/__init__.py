from .common import (
    CONVERGED,
    HORIZON_COMPLETE,
    ITERATION_BUDGET,
    LINESEARCH_FAILURE,
    ORACLE_BUDGET,
    TIME_BUDGET,
    DivergenceError,
    LineSearcher,
    OptimizeResult,
    OptimizerTrace,
    StopCriteria,
    TraceRecord,
    make_linesearch,
)
from .gradient import gradient_descent_fixed, steepest_descent
from .fgm import fgm, ofgm, ofgm_schedule
from .cg import CgVariant, VARIANTS as CG_VARIANTS, cg, cg_beta
from .lbfgs import LbfgsMemory, lbfgs, lbfgs_direction
from .wiggle import WiggleConfig, WiggleResult, atom_wiggle
