"""Graded Markov chains, Martin kernels, h-transforms, and an exchangeability
verification toolkit built on exact rational arithmetic.  The exports of
``definetti`` and ``harmonic``, listed in ``_LAZY``, load on first use, so a
command that never reads them never compiles them."""

from .chain import (
    DistributionTable,
    GradedChain,
    State,
    kernel_mean,
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
from .errors import (
    BudgetExceededError,
    ConfigError,
    CotransitionMismatchError,
    MartinWalkError,
    NonStochasticError,
    NotHarmonicError,
    UnreachableStateError,
)
from .prob import Prob, format_prob, parse_prob, validate_simplex
from .reports import CheckReport, MonteCarloResult, Violation

__version__ = "0.1.0"

#: export -> the module that defines it, for the exports served on first use
_LAZY = dict.fromkeys(
    "DirectingEstimate MarkovSource MixtureSource PolyaUrnSource binary_digits counting_chain"
    " counting_chain_law counting_h_recovery definetti_identity_check dirichlet_moment"
    " estimate_directing_measure ks_distance_uniform lift_source_law projection_consistency_check"
    " reconstruct_real source_cylinder_law verify_counting_cotransitions verify_counting_markov"
    .split(),
    "definetti",
) | dict.fromkeys(
    "HarmonicFn HTransformChain cotransition_equality_check density_ratio_check h_transform"
    " is_harmonic kernel_transform_check recover_h representation_check representation_check_mc"
    .split(),
    "harmonic",
)


def __getattr__(name: str):
    """An export of ``_LAZY``, read from its module, which this imports on first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))
