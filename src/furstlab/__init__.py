"""furstlab: desk-scale experiments on transversal curve families.

Modules
-------
family    curves and transversal families
dyadic    dyadic cells, covering numbers, set-class checkers, generators
famspace  the dyadic system on a family via the planar embedding
incidence curve/square incidence kernels and the high-low split
config    nice configurations and the counting experiments
fourier   curve measures, Fourier transforms, L^p norms, decay slopes
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
)
from .dyadic import (
    AtomicMeasure,
    DiscretePointSet,
    SquareFamily,
    covering_number,
    delta_set_constant,
    dyadic_cover,
    generate_delta_set,
    katz_tao_constant,
)
from .famspace import extract_uniform_subset
from .incidence import (
    HighLowReport,
    high_low_reports,
    incidences,
    incidences_bruteforce,
)
from .config import (
    ExperimentResult,
    NiceConfiguration,
    build_nice_configuration,
    endpoint_checks,
    furstenberg_experiment,
)
from .fourier import (
    decay_slope,
    fourier_transform,
    lift_measure,
    lp_norm_ball,
)
