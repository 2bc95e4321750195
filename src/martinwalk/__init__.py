"""Graded Markov chains, Martin kernels, h-transforms, and an exchangeability
verification toolkit built on exact rational arithmetic."""

from .chain import (
    DistributionTable,
    GradedChain,
    State,
    kernel_rows,
    markov_property_check,
    replicate_rng,
)
from .compositions import (
    alpha_walk,
    boundary_harmonic,
    boundary_kernel,
    closed_form_kernel,
    comp_state,
    compositions,
    product_moment,
    uniform_walk,
)
from .definetti import (
    DirectingEstimate,
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    binary_digits,
    counting_chain,
    counting_chain_law,
    counting_h_recovery,
    definetti_identity_check,
    dirichlet_moment,
    estimate_directing_measure,
    ks_distance_uniform,
    lift_source_law,
    projection_consistency_check,
    reconstruct_real,
    source_cylinder_law,
    verify_counting_cotransitions,
    verify_counting_markov,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    CotransitionMismatchError,
    MartinWalkError,
    NonStochasticError,
    NotHarmonicError,
    UnreachableStateError,
)
from .harmonic import (
    HarmonicFn,
    HTransformChain,
    cotransition_equality_check,
    density_ratio_check,
    h_transform,
    is_harmonic,
    kernel_transform_check,
    recover_h,
    representation_check,
    representation_check_mc,
)
from .prob import Prob, format_prob, parse_prob, probs_equal, validate_simplex
from .reports import CheckReport, MonteCarloResult, Violation

__version__ = "0.1.0"
