"""furstlab: desk-scale experiments on transversal curve families.

Modules
-------
family    curves and transversal families
dyadic    dyadic cells, covering numbers, set-class checkers, generators
famspace  the dyadic system on a family via the planar embedding
incidence curve/square incidence kernels and the high-low split
config    nice configurations and the counting experiments
fourier   curve measures, Fourier transforms, decay slopes, Riesz energy
cli       the furst-lab experiment runner
"""

__version__ = "0.1.0"

from .family import (
    ConvexSeed,
    CurveFunction,
    TransversalFamily,
    affine_curve,
    c2_dist,
    estimate_transversality_constant,
    exp_seed,
    intersection_components,
    quadratic_seed,
    quadratic_translate_curve,
    transversality_defect,
)
from .dyadic import (
    AtomicMeasure,
    DiscretePointSet,
    SquareFamily,
    covering_number,
    delta_set_constant,
    dyadic_cover,
    frostman_constant,
    generate_delta_set,
    katz_tao_constant,
)
from .famspace import (
    BranchingFunction,
    branching_function,
    check_linear,
    check_superlinear,
    extract_uniform_subset,
)
from .incidence import (
    HighLowReport,
    bundle,
    high_low_report,
    incidences,
    incidences_bruteforce,
    weighted_incidences,
)
from .config import (
    ExperimentResult,
    NiceConfiguration,
    build_nice_configuration,
    endpoint_checks,
    furstenberg_experiment,
    verify_nice,
)
from .fourier import (
    CurveMeasure,
    decay_slope,
    fourier_transform,
    gamma,
    lift_measure,
    lp_norm_ball,
    riesz_energy,
)
