"""ffmin: force-field energy evaluation and first-order minimization."""

__version__ = "0.1.0"

from .constants import COULOMB_KJ_ANGSTROM
from .model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    ModelError,
    MolecularSystem,
    NonbondedPolicy,
    build_default_exclusions,
)
from .energy import (
    EnergyBreakdown,
    EnergyEvaluationError,
    FarFieldLinearization,
    NonFiniteEnergyError,
    delta_energy_atom_move,
    energy_and_gradient,
    energy_bend,
    energy_coulomb,
    energy_stretch,
    energy_torsion,
    energy_total,
    energy_vdw,
    exact_delta_atom_move,
    finite_difference_gradient,
    gradient_total,
    linearize_farfield_coulomb,
)
from .linesearch import (
    LineSearchResult,
    LsHConfig,
    LsParConfig,
    ls_h,
    ls_par,
    parabola_min,
)
from .oracle import FunctionOracle, MolecularOracle, ObjectiveOracle
from .optimizers import (
    CgVariant,
    DivergenceError,
    LbfgsMemory,
    LineSearcher,
    OptimizeResult,
    OptimizerTrace,
    StopCriteria,
    WiggleConfig,
    atom_wiggle,
    cg,
    cg_beta,
    fgm,
    gradient_descent_fixed,
    lbfgs,
    lbfgs_direction,
    make_linesearch,
    ofgm,
    ofgm_schedule,
    steepest_descent,
)
from .bench import (
    ExactQuadraticLineSearch,
    QuadraticInstance,
    WorstCaseFunction,
)
from .ranking import RankingReport, rmsd
from .sysio import SystemFileError, load_system, save_system
from .synth import make_chain_system, perturbed_copy
